"""Per-layer tracing from outside the program: wrappers around its public functions.

Each wrapper is installed where the program looks the function up, and every
one is put back when the ``patched`` block ends:

- ``spikeopt.unit`` binds ``encode``, ``compute_xref``, ``decode``,
  ``threshold``, ``phi_s``, ``apply_spike_rule`` and ``clip`` by name at
  import, so those names are patched on ``spikeopt.unit``;
- the integrator is reached through the ``dynamics.INTEGRATORS`` dict, so its
  entries are patched;
- ``runtime`` calls ``unit.*`` and ``coordination.*`` through the module, so
  those are patched on the module;
- ``Slot``, ``Mailbox`` and ``ObjectiveFunction`` are patched on the class.

Wrappers nest (the core step calls encode, the selector calls evaluate), so
each layer records its own time and the time of its wrapped children; self
time is the difference. The time during which no thread is inside any
wrapped call is kept too: it is the step loop's own time.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

UNIT_FUNCTIONS = {
    "spiking_core_step": "unit.core_step",
    "selector_step": "unit.selector_step",
    "spiking_handler_step": "unit.io_step",
    "sender_step": "unit.io_step",
    "receiver_step": "unit.io_step",
    "encode": "transform.encode",
    "compute_xref": "transform.compute_xref",
    "decode": "transform.decode",
    "threshold": "heuristics.predicate",
    "phi_s": "heuristics.predicate",
    "apply_spike_rule": "heuristics.rule",
    "clip": "problem.clip",
}
COORDINATION_FUNCTIONS = {
    "tensor_contract": "coordination.contract",
    "neighbour_manager_step": "coordination.neighbour",
    "high_level_selector_step": "coordination.global_best",
}
INTEGRATOR_LAYER = "dynamics.integrator"


def _class_methods(sp) -> List[Tuple[type, str, str]]:
    return [
        (sp.problem.ObjectiveFunction, "evaluate", "problem.evaluate"),
        (sp.channels.Slot, "put", "channels.put"),
        (sp.channels.Mailbox, "put", "channels.put"),
        (sp.channels.Slot, "get_fresh", "channels.get_fresh"),
        (sp.channels.Mailbox, "drain", "channels.drain"),
    ]


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def attr(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        # read through __dict__ so a class keeps its plain function, not a bound one
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._undo.append(lambda: setattr(owner, name, original))

    def item(self, mapping: dict, key, make: Callable[[Callable], Callable]) -> None:
        original = mapping[key]
        mapping[key] = make(original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


@contextmanager
def patched(fill: Callable[[Patches], None]) -> Iterator[None]:
    patches = Patches()
    try:
        fill(patches)
        yield
    finally:
        patches.restore()


class LayerTracer:
    """Call counts, inclusive and child time, and row counts per layer.

    Safe for the concurrent driver's threads: each thread keeps its own stack
    of open calls, and the shared totals are updated under one lock.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.child_seconds: Counter = Counter()
        self.rows: Counter = Counter()
        # wall time during which at least one thread is inside a wrapped call
        self.covered_s = 0.0
        self._open_outer = 0
        self._outer_since = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(
        self,
        layer: str,
        fn: Callable,
        rows: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack:
                with self._lock:
                    if self._open_outer == 0:
                        self._outer_since = perf_counter()
                    self._open_outer += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[layer] += 1
                    self.seconds[layer] += elapsed
                    self.child_seconds[layer] += child
                    if rows is not None:
                        self.rows[layer] += rows(args)
                    if not stack:
                        self._open_outer -= 1
                        if self._open_outer == 0:
                            self.covered_s += perf_counter() - self._outer_since

        traced.__wrapped__ = fn
        return traced

    def install(self, sp, patches: Patches) -> None:
        """Wrap every traced function of the imported ``spikeopt`` package ``sp``."""
        for name, layer in UNIT_FUNCTIONS.items():
            patches.attr(sp.unit, name, lambda fn, layer=layer: self.wrap(layer, fn))
        for name, layer in COORDINATION_FUNCTIONS.items():
            patches.attr(sp.coordination, name, lambda fn, layer=layer: self.wrap(layer, fn))
        for key in list(sp.dynamics.INTEGRATORS):
            patches.item(
                sp.dynamics.INTEGRATORS,
                key,
                # integrator(model, v, dt): v holds one row per integrated (unit, dimension)
                lambda fn: self.wrap(INTEGRATOR_LAYER, fn, rows=lambda args: len(args[1])),
            )
        for cls, name, layer in _class_methods(sp):
            patches.attr(cls, name, lambda fn, layer=layer: self.wrap(layer, fn))

    def self_seconds(self, layer: str) -> float:
        return self.seconds[layer] - self.child_seconds[layer]


def layer_metrics(
    tracer: LayerTracer,
    step_s: float,
    unit_dim_steps: int,
    event_count: int,
    write_s: float,
    write_bytes: int,
) -> Dict[str, float]:
    """One traced run's per-layer figures, named ``<module>.<function>.<kind>``.

    The channel figures are left out of runs that use no channel (det mode).
    """
    calls, secs = tracer.calls, tracer.seconds
    rule_calls = calls["heuristics.rule"]
    metrics = {
        "runtime.step_loop.self_s": step_s - tracer.covered_s,
        "unit.core_step.calls": calls["unit.core_step"],
        "unit.core_step.s": secs["unit.core_step"],
        "unit.core_step.self_s": tracer.self_seconds("unit.core_step"),
        "unit.selector_step.s": secs["unit.selector_step"],
        "unit.io_step.calls": calls["unit.io_step"],
        "unit.io_step.s": secs["unit.io_step"],
        "transform.encode.calls": calls["transform.encode"],
        "transform.encode.s": secs["transform.encode"],
        "transform.compute_xref.s": secs["transform.compute_xref"],
        "transform.decode.s": secs["transform.decode"],
        "heuristics.predicate.s": secs["heuristics.predicate"],
        "heuristics.rule.calls": rule_calls,
        "heuristics.rule.s": secs["heuristics.rule"],
        "heuristics.fire_share": rule_calls / unit_dim_steps,
        "heuristics.fallback_share": event_count / rule_calls if rule_calls else 0.0,
        "dynamics.integrator.calls": calls[INTEGRATOR_LAYER],
        "dynamics.integrator.rows": tracer.rows[INTEGRATOR_LAYER],
        "dynamics.integrator.s": secs[INTEGRATOR_LAYER],
        "problem.evaluate.calls": calls["problem.evaluate"],
        "problem.evaluate.s": secs["problem.evaluate"],
        "problem.clip.s": secs["problem.clip"],
        "coordination.contract.s": secs["coordination.contract"],
        "coordination.neighbour.s": secs["coordination.neighbour"],
        "coordination.global_best.s": secs["coordination.global_best"],
        "cli.write.s": write_s,
        "cli.write.bytes": write_bytes,
    }
    if calls["channels.put"]:
        metrics.update(
            {
                "channels.put.calls": calls["channels.put"],
                "channels.get_fresh.calls": calls["channels.get_fresh"],
                "channels.get_fresh.wait_s": secs["channels.get_fresh"],
                "channels.drain.calls": calls["channels.drain"],
                "channels.drain.wait_s": secs["channels.drain"],
            }
        )
    return metrics
