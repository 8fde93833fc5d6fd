"""Capacity-1 message channels for the concurrent execution mode.

A ``Slot`` holds the latest value written to it; writes never block and
overwrite silently, readers either block for a value fresher than the one
they last saw or peek at whatever is present. A run uses two: the
activation broadcast and the information broadcast (global best and
neighbourhood tensor). A ``Mailbox`` is the many-to-one variant drained by
the two coordination loops: every unit puts its spike row into one and its
best row into the other; one pending value per sender, drained in ascending
sender order.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

__all__ = ["Closed", "Slot", "Mailbox"]


class Closed(Exception):
    """The channel was shut down while waiting."""


class Slot:
    """Single-value channel with versioned, latest-wins semantics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._cond = threading.Condition()
        self._value: Any = None
        self._version = 0
        self._closed = False

    def put(self, value: Any) -> None:
        with self._cond:
            self._value = value
            self._version += 1
            self._cond.notify_all()

    def get_fresh(self, last_version: int) -> Tuple[Any, int]:
        """Block until a version newer than ``last_version`` is present."""
        with self._cond:
            self._cond.wait_for(lambda: self._version > last_version or self._closed)
            if self._version <= last_version:
                raise Closed(f"slot {self.name}: closed")
            return self._value, self._version

    def peek(self) -> Tuple[Any, int]:
        """Latest value and version without blocking; (None, 0) if never written."""
        with self._cond:
            return self._value, self._version

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class Mailbox:
    """Per-sender latest-wins inbox, drained by a single collector."""

    def __init__(self, name: str = ""):
        self.name = name
        self._cond = threading.Condition()
        self._pending: Dict[int, Any] = {}
        self._closed = False

    def put(self, sender: int, value: Any) -> None:
        with self._cond:
            self._pending[sender] = value
            self._cond.notify_all()

    def drain(self) -> List[Tuple[int, Any]]:
        """Block until something is pending, then take it all (ascending sender)."""
        with self._cond:
            self._cond.wait_for(lambda: self._pending or self._closed)
            if not self._pending:
                raise Closed(f"mailbox {self.name}: closed")
            items = sorted(self._pending.items())
            self._pending.clear()
            return items

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
