"""Latest-wins slots and per-sender mailboxes of the concurrent driver."""

from __future__ import annotations

import threading
import time

import pytest

from spikeopt.channels import Closed, Mailbox, Slot

JOIN_S = 5.0


def start(target, *args) -> threading.Thread:
    th = threading.Thread(target=target, args=args, daemon=True)
    th.start()
    return th


def finish(th: threading.Thread) -> None:
    th.join(timeout=JOIN_S)
    assert not th.is_alive(), "thread still blocked"


def capture(fn, *args):
    """Run ``fn(*args)`` in a thread; the result or exception lands in the returned dict."""
    box = {}

    def body():
        try:
            box["value"] = fn(*args)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            box["error"] = exc

    return start(body), box


class TestSlot:
    def test_put_and_peek_latest_wins(self):
        slot = Slot("x")
        assert slot.peek() == (None, 0)
        slot.put("a")
        slot.put("b")
        assert slot.peek() == ("b", 2)
        assert slot.get_fresh(1) == ("b", 2)

    def test_get_fresh_blocks_until_newer_version(self):
        slot = Slot("x")
        slot.put("old")
        th, box = capture(slot.get_fresh, 1)
        time.sleep(0.05)
        assert th.is_alive() and not box  # version 1 is not newer than 1
        slot.put("new")
        finish(th)
        assert box["value"] == ("new", 2)

    def test_close_wakes_blocked_get_fresh(self):
        slot = Slot("x")
        th, box = capture(slot.get_fresh, 0)
        time.sleep(0.05)
        assert th.is_alive()
        slot.close()
        finish(th)
        assert isinstance(box["error"], Closed)

    def test_closed_slot_still_serves_a_newer_value(self):
        slot = Slot("x")
        slot.put("v")
        slot.close()
        assert slot.get_fresh(0) == ("v", 1)
        with pytest.raises(Closed):
            slot.get_fresh(1)


class TestMailbox:
    def test_one_pending_value_per_sender_in_ascending_order(self):
        box = Mailbox("m")
        box.put(3, "c1")
        box.put(0, "a")
        box.put(3, "c2")
        box.put(1, "b")
        assert box.drain() == [(0, "a"), (1, "b"), (3, "c2")]

    def test_drain_blocks_until_a_put(self):
        box = Mailbox("m")
        th, result = capture(box.drain)
        time.sleep(0.05)
        assert th.is_alive() and not result
        box.put(2, "x")
        finish(th)
        assert result["value"] == [(2, "x")]

    def test_close_wakes_blocked_drain(self):
        box = Mailbox("m")
        th, result = capture(box.drain)
        time.sleep(0.05)
        assert th.is_alive()
        box.close()
        finish(th)
        assert isinstance(result["error"], Closed)

    def test_closed_mailbox_hands_over_what_is_pending(self):
        box = Mailbox("m")
        box.put(0, "x")
        box.close()
        assert box.drain() == [(0, "x")]
        with pytest.raises(Closed):
            box.drain()
