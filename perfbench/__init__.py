"""Benchmark of the Viyojit simulator (see README.md)."""
