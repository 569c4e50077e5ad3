"""Timestamped event queue driving the simulation.

The Viyojit runtime has two asynchronous activities that happen "behind"
the application's back: epoch boundaries (page-table dirty-bit scans) and
SSD IO completions (proactive flushes finishing).  In the real system these
are a timer thread and device interrupts; here they are events on a
priority queue that the experiment runner drains whenever the application
clock passes an event's timestamp.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, NamedTuple, Optional

from repro.sim.clock import SimClock

#: Sentinel for "no pending event": later than any reachable timestamp.
NEVER_NS = 1 << 63


class Event(NamedTuple):
    """A callback scheduled at an absolute virtual time.

    Events order as tuples, by ``(when_ns, seq)`` — ``seq`` is unique, so
    ``action`` is never compared — which makes simultaneous events fire
    in the order they were scheduled (important for determinism) and
    lets the heap hold the events themselves.
    """

    when_ns: int
    seq: int
    action: Callable[[], None]


class EventQueue:
    """Min-heap of :class:`Event` ordered by timestamp then FIFO.

    :attr:`next_due_at` is a *lower bound* on the earliest pending
    event's timestamp (``NEVER_NS`` when empty), maintained so hot-path
    callers can skip :meth:`pop_due` entirely while the clock has not
    reached it: "clock below the bound" always means "nothing due".
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self.next_due_at: int = NEVER_NS

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when_ns: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` to run at absolute time ``when_ns``."""
        if when_ns < 0:
            raise ValueError(f"cannot schedule event at negative time: {when_ns}")
        when_ns = int(when_ns)
        event = Event(when_ns, next(self._counter), action)
        heapq.heappush(self._heap, event)
        if when_ns < self.next_due_at:
            self.next_due_at = when_ns
        return event

    def peek_time(self) -> Optional[int]:
        """Timestamp of the earliest pending event, or ``None`` if empty."""
        if self._heap:
            when = self.next_due_at = self._heap[0][0]
            return when
        self.next_due_at = NEVER_NS
        return None

    def pop_due(self, now_ns: int) -> Optional[Event]:
        """Pop the earliest event with timestamp <= ``now_ns``, if any."""
        if now_ns < self.next_due_at:
            return None
        heap = self._heap
        if not heap:
            self.next_due_at = NEVER_NS
            return None
        if heap[0][0] > now_ns:
            self.next_due_at = heap[0][0]
            return None
        event = heapq.heappop(heap)
        self.next_due_at = heap[0][0] if heap else NEVER_NS
        return event


class Simulation:
    """A clock plus an event queue: the spine of one experiment.

    Every simulated device (MMU, SSD, Viyojit runtime) holds a reference to
    one :class:`Simulation` and charges time / schedules completions
    through it.

    The central method is :meth:`run_until`: it fires all events whose
    timestamps have been passed by the application clock, in timestamp
    order, letting background activity (epoch scans, flush completions)
    interleave deterministically with foreground work.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self.clock = SimClock(start_ns)
        self.events = EventQueue()

    @property
    def now(self) -> int:
        return self.clock.now

    def schedule_at(self, when_ns: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute virtual time ``when_ns``."""
        return self.events.schedule(when_ns, action)

    def schedule_after(self, delta_ns: int, action: Callable[[], None]) -> Event:
        """Schedule ``action`` ``delta_ns`` after the current time."""
        return self.events.schedule(self.clock.now + delta_ns, action)

    def drain_due(self) -> int:
        """Fire every event due at or before the current clock time.

        Returns the number of events fired.  Events may schedule further
        events; those fire too if they are already due.
        """
        fired = 0
        clock = self.clock
        pop_due = self.events.pop_due
        while True:
            event = pop_due(clock._now)
            if event is None:
                return fired
            event.action()
            fired += 1

    def run_until(self, when_ns: int) -> int:
        """Advance to ``when_ns``, firing due events *in timestamp order*.

        Unlike ``clock.advance_to(t); drain_due()``, this steps the clock
        event by event so an event's action observes the virtual time at
        which it logically fires.
        """
        fired = 0
        while True:
            next_time = self.events.peek_time()
            if next_time is None or next_time > when_ns:
                break
            self.clock.advance_to(next_time)
            event = self.events.pop_due(self.clock.now)
            if event is not None:
                event.action()
                fired += 1
        self.clock.advance_to(when_ns)
        return fired
