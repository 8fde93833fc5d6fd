"""The benchmark's workloads and how the program under test is imported.

Each workload keeps its own copy of its run configuration in ``bench/configs``
so that an edit to the repository's ``configs/`` cannot silently change what
is measured. The benchmark seed replaces the config's ``seed``; nothing else
is overridden.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"

# a concurrent run that takes longer than this is aborted and counted as failed
RUN_TIMEOUT_S = 60.0
# the full-state check run replays every step, so it is capped to keep it short
FULL_STATE_MAX_BUDGET = 300
# criterion 6 of the acceptance gate: sphere runs reach this error in budget
SPHERE_TARGET_EPS = 1e-6


# why each workload is there is recorded in BENCHMARK.json and README.md
WORKLOADS = ("det-linear-sphere-d2", "det-hybrid-rastrigin-d40", "async-hybrid-sphere-d2")


def workload_config(name: str, seed: int) -> dict:
    """The workload's run config with the given config seed."""
    data = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    data["seed"] = seed
    return data


class NoProgram(RuntimeError):
    """The checkout holds no importable ``spikeopt`` sources."""


def import_spikeopt():
    """Import ``spikeopt`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "spikeopt" / "__init__.py").is_file():
        raise NoProgram(f"no spikeopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    module = importlib.import_module("spikeopt")
    for name in ("channels", "cli", "coordination", "dynamics", "problem", "runtime", "unit"):
        importlib.import_module(f"spikeopt.{name}")
    origin = Path(module.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise NoProgram(f"spikeopt was imported from {origin}, not from {SRC}")
    return module
