"""Fixtures that hand the mem unit tests the classes under test.

The unit tests take the page-table and TLB classes from these fixtures
rather than importing them, and each runs once per entry of the
``kernel`` parameter.  The object kernel (``PageTable``/``TLB``) is the
only memory kernel, so every test runs once, under the ``object`` id.
"""

from __future__ import annotations

import pytest

from repro.mem.page_table import PageTable
from repro.mem.tlb import TLB

PAGE_TABLE_CLASSES = {"object": PageTable}
TLB_CLASSES = {"object": TLB}


@pytest.fixture(params=sorted(PAGE_TABLE_CLASSES))
def kernel(request):
    return request.param


@pytest.fixture
def page_table_cls(kernel):
    return PAGE_TABLE_CLASSES[kernel]


@pytest.fixture
def tlb_cls(kernel):
    return TLB_CLASSES[kernel]
