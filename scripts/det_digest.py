"""Digest of deterministic runs, for checking that two checkouts give identical output.

Run from anywhere with ``python3 scripts/det_digest.py``; it imports ``spikeopt``
from the ``src/`` directory of the checkout it lives in. It prints one
``<config> <seed> <sha256>`` line per run. Copy the script into another
checkout, run it there too, and compare the two outputs line by line.
``scripts/det_digest.txt`` holds the reference output of the current random
stream contract behind a one-line header. No float BLAS product is on the det
path, so the OpenBLAS kernel the host selects does not change it (set
``OPENBLAS_CORETYPE``, e.g. ``Nehalem``, to check). A change that must keep det output
byte-identical checks it with
``python3 scripts/det_digest.py | diff - <(tail -n +2 scripts/det_digest.txt)``.

Every run uses ``mode: det`` and ``log: full-state``. The digest covers the
bytes of ``trace.csv``, ``spikes.csv`` and ``summary.json`` as the ``cli``
writes them, every snapshot array, ``unit_best`` and ``event_count``.

The runs are every config in ``configs/`` (concurrent ones forced to ``det``,
the ``base`` of sweep and scale files), the deterministic configs in
``bench/configs/``, and small variants of ``configs/smoke.json`` that cover each
spike rule, condition, threshold, core model and integrator, both topologies
of each kind, the neighbour-average reference point and three more problems;
each at seeds 1, 2 and 7.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spikeopt import cli, runtime  # noqa: E402

SEEDS = (1, 2, 7)
SNAPSHOT_FIELDS = ("x", "v_pre", "v_post", "theta", "s", "model_traces")


def _update(*path, **fields):
    """A variant that updates the object at ``path`` in the config with ``fields``."""

    def apply(data: dict) -> None:
        node = data
        for key in path:
            node = node[key]
        node.update(fields)

    return apply


def _rule(name: str, **params):
    return _update("unit", "spike", rule=name, rule_params=params)


def _condition(name: str, **params):
    return _update("unit", "spike", condition=name, condition_params=params)


def _hybrid(data: dict) -> None:
    linear = data.pop("unit")
    izhikevich = copy.deepcopy(linear)
    izhikevich["dynamics"] = {"model": "izhikevich", "integrator": "rk4", "dt": 0.01, "params": {}}
    data["units"] = [linear, izhikevich]


VARIANTS = {
    "rule-random_reset": _rule("random_reset"),
    "rule-fixed_reset": _rule("fixed_reset", sigma=0.1),
    "rule-fixed_reset-p_cr": _rule("fixed_reset", sigma=0.1, p_cr=0.5),
    "rule-directional-self_best": _rule("directional", alpha_d=0.7, sigma=0.05, target="self_best"),
    "rule-directional-global_best": _rule("directional", alpha_d=0.7, sigma=0.05, target="global_best"),
    "rule-directional-blend": _rule("directional", alpha_d=0.7, sigma=0.05, target="blend"),
    "rule-de_current_to_best": _rule("de_current_to_best", F=0.6),
    "rule-de_rand-p_cr": _rule("de_rand", F=0.5, p_cr=0.4),
    "condition-abs_threshold": _condition("abs_threshold"),
    "condition-minkowski-q3": _condition("weighted_minkowski", q=3.0),
    "condition-shrinking_ball": _condition("shrinking_ball", epsilon_spk=2.0),
    "condition-disc": _condition("disc", theta_attractor=0.5, theta_repeller=1.5),
    "threshold-fixed": _update("unit", "spike", threshold="fixed", alpha_thr=0.5),
    "threshold-ref_self_gap": _update("unit", "spike", threshold="ref_self_gap", alpha_thr=1.0),
    "model-izhikevich": _update("unit", "dynamics", model="izhikevich", params={}),
    "model-lif": _update("unit", "dynamics", model="lif", params={}),
    "integrator-euler": _update("unit", "dynamics", integrator="euler"),
    "hybrid-linear-izhikevich": _hybrid,
    "spike-full": _update("topology", spike="full"),
    "info-full": _update("topology", info="full", m=None),
    "xref-neighbour_average": _update(
        "unit", transform={"alpha": 1.0, "xref": "self_global_neighbour_average"}
    ),
    "problem-rastrigin": _update("problem", name="rastrigin"),
    "problem-schwefel": _update("problem", name="schwefel"),
    "problem-rosenbrock": _update("problem", name="rosenbrock"),
}


def runs():
    """(label, config dict) pairs, before the seed is set."""
    for path in sorted((ROOT / "configs").glob("*.json")):
        data = json.loads(path.read_text())
        yield path.stem, data.get("base", data)
    for path in sorted((ROOT / "bench" / "configs").glob("det-*.json")):
        yield f"bench/{path.stem}", json.loads(path.read_text())
    smoke = json.loads((ROOT / "configs" / "smoke.json").read_text())
    smoke.update(n=8, budget=60)
    smoke["problem"]["dimension"] = 3
    smoke["topology"]["m"] = 3
    yield "variant-base", smoke
    for name, apply in VARIANTS.items():
        data = copy.deepcopy(smoke)
        apply(data)
        yield f"variant-{name}", data


def digest(data: dict, out_dir: Path) -> str:
    cfg = runtime.RunConfig.from_dict(data)
    trace = runtime.run(cfg)
    cli.write_trace_csv(trace, out_dir / "trace.csv")
    cli.write_spikes_csv(trace, out_dir / "spikes.csv")
    cli.write_summary(trace, cfg, out_dir / "summary.json")
    h = hashlib.sha256()
    for name in ("trace.csv", "spikes.csv", "summary.json"):
        h.update((out_dir / name).read_bytes())
    arrays = [getattr(trace.snapshots, name) for name in SNAPSHOT_FIELDS]
    for array in (*arrays, trace.unit_best):
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    h.update(f"event_count={trace.event_count}".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for label, base in runs():
            for seed in SEEDS:
                data = copy.deepcopy(base)
                data.update(seed=seed, mode="det", log="full-state")
                print(f"{label} {seed} {digest(data, out_dir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
