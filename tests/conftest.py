"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from spikeopt.runtime import RunConfig, RunTrace

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name: str, **overrides) -> RunConfig:
    data = json.loads((CONFIG_DIR / name).read_text())
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    return RunConfig.from_dict(data)


def assert_trace_monotone(trace: RunTrace) -> None:
    """Greedy contracts: global and per-unit best fitness never increase."""
    assert np.all(np.diff(trace.f_g) <= 0.0), "global best fitness increased"
    diffs = np.diff(trace.unit_best, axis=0)
    assert np.all(diffs[~np.isnan(diffs)] <= 0.0), "a unit's best fitness increased"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)

