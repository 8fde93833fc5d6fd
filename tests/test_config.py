"""Config loading: strict keys, integer and finite-number fields, and the dict round trip."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from spikeopt.dynamics import LINEAR_STABILITY_CLASSES
from spikeopt.heuristics import CONDITION_VARIANTS, RULE_VARIANTS, THRESHOLD_VARIANTS
from spikeopt.problem import BENCHMARK_NAMES
from spikeopt.runtime import (
    INFO_TOPOLOGIES,
    LOG_LEVELS,
    MODES,
    SPIKE_TOPOLOGIES,
    ConfigError,
    RunConfig,
    UnitSpec,
)
from spikeopt.transform import XREF_STRATEGIES

BENCH_CONFIG_DIR = Path(__file__).resolve().parent.parent / "bench" / "configs"


def smoke() -> dict:
    return json.loads((CONFIG_DIR / "smoke.json").read_text())


def shipped_configs():
    for path in sorted(CONFIG_DIR.glob("*.json")) + sorted(BENCH_CONFIG_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        yield pytest.param(data.get("base", data), id=path.name)


@pytest.mark.parametrize("data", shipped_configs())
def test_shipped_configs_and_their_echo_load(data):
    cfg = RunConfig.from_dict(data)
    # the config echo written to summary.json loads back to the same config
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert RunConfig.from_dict(echo) == cfg


def _set(path, value):
    def apply(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return apply


def _neighbour_average_with(weights):
    def apply(data):
        data["unit"]["transform"].update(xref="self_global_neighbour_average", weights=weights)

    return apply


MALFORMED = {
    "seed-negative": _set(["seed"], -1),
    "seed-string": _set(["seed"], "abc"),
    "seed-fraction": _set(["seed"], 1.5),
    "n-fraction": _set(["n"], 4.9),
    "n-string": _set(["n"], "4"),
    "budget-bool": _set(["budget"], True),
    "dimension-fraction": _set(["problem", "dimension"], 2.5),
    "m-bool": _set(["topology", "m"], True),
    "dt-nan": _set(["unit", "dynamics", "dt"], math.nan),
    "dt-string": _set(["unit", "dynamics", "dt"], "0.01"),
    "alpha-inf": _set(["unit", "transform", "alpha"], math.inf),
    "alpha_thr-nan": _set(["unit", "spike", "alpha_thr"], math.nan),
    "weights-three": _set(["unit", "transform", "weights"], [0.2, 0.3, 0.5]),
    "weights-one": _set(["unit", "transform", "weights"], [1.0]),
    "weights-nan": _set(["unit", "transform", "weights"], [math.nan, 0.5]),
    "neighbour-average-3-weights": _neighbour_average_with([0.25, 0.25, 0.5]),
    "neighbour-average-4-weights": _neighbour_average_with([0.25, 0.25, 0.25, 0.25]),
    "unknown-top": _set(["problm"], {"name": "rastrigin"}),
    "unknown-problem": _set(["problem", "dim"], 3),
    "unknown-topology": _set(["topology", "mm"], 2),
    "unknown-unit": _set(["unit", "dynamcs"], {}),
    "unknown-dynamics": _set(["unit", "dynamics", "step"], 0.1),
    "unknown-transform": _set(["unit", "transform", "gain"], 2.0),
    "unknown-spike": _set(["unit", "spike", "rul"], "de_rand"),
    "unknown-linear-param": _set(["unit", "dynamics", "params", "v_th"], 1.0),
    "unknown-dynamics-model": _set(["unit", "dynamics", "model"], "hodgkin_huxley"),
    "problem-not-object": _set(["problem"], "sphere"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_config_rejected_at_load(name):
    data = smoke()
    MALFORMED[name](data)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


@pytest.mark.parametrize(
    "model,params",
    [
        ("izhikevich", {"a": 0.02, "v_th": 30.0}),
        ("lif", {"tau_m": 10.0, "stability": "random"}),
        ("linear", {"i_syn": 1.0}),
    ],
)
def test_model_params_checked_per_model(model, params):
    data = smoke()
    data["unit"]["dynamics"].update(model=model, params=params)
    with pytest.raises(ConfigError, match="params"):
        RunConfig.from_dict(data)


def test_integral_float_accepted():
    data = smoke()
    data.update(n=4.0, budget=10.0)
    cfg = RunConfig.from_dict(data)
    assert (cfg.n, cfg.budget) == (4, 10) and isinstance(cfg.n, int)


# ---------------------------------------------------------------------------
# property tests

finite = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)
MODEL_PARAM_VALUES = {
    "linear": st.fixed_dictionaries(
        {}, optional={"stability": st.sampled_from(LINEAR_STABILITY_CLASSES)}
    ),
    "izhikevich": st.fixed_dictionaries(
        {}, optional={k: finite for k in ("a", "b", "c", "d", "i_syn")}
    ),
    "lif": st.fixed_dictionaries({}, optional={k: finite for k in ("tau_m", "v_rest", "i_syn")}),
}


@st.composite
def unit_specs(draw):
    model = draw(st.sampled_from(sorted(MODEL_PARAM_VALUES)))
    xref = draw(st.sampled_from(XREF_STRATEGIES))
    weights = None
    if xref == XREF_STRATEGIES[0] and draw(st.booleans()):
        w = draw(st.floats(min_value=0.0, max_value=1.0))
        weights = [w, 1.0 - w]
    return UnitSpec(
        model=model,
        integrator=draw(st.sampled_from(("euler", "rk4"))),
        dt=draw(finite),
        model_params=draw(MODEL_PARAM_VALUES[model]),
        alpha=draw(finite),
        xref=xref,
        xref_weights=weights,
        condition=draw(st.sampled_from(CONDITION_VARIANTS)),
        threshold=draw(st.sampled_from(THRESHOLD_VARIANTS)),
        alpha_thr=draw(finite),
        rule=draw(st.sampled_from(RULE_VARIANTS)),
    )


@st.composite
def run_configs(draw):
    n = draw(st.integers(min_value=2, max_value=200))
    info = draw(st.sampled_from(INFO_TOPOLOGIES))
    m = st.integers(min_value=1, max_value=n - 1)
    return RunConfig(
        problem_name=draw(st.sampled_from(BENCHMARK_NAMES)),
        dimension=draw(st.integers(min_value=1, max_value=100)),
        n=n,
        budget=draw(st.integers(min_value=1, max_value=10_000)),
        seed=draw(st.integers(min_value=0, max_value=2**63)),
        mode=draw(st.sampled_from(MODES)),
        log=draw(st.sampled_from(LOG_LEVELS)),
        spike_topology=draw(st.sampled_from(SPIKE_TOPOLOGIES)),
        info_topology=info,
        # m may be left unset only where the topology does not read it
        info_m=draw(st.none() | m if info == "full" else m),
        units=draw(st.lists(unit_specs(), min_size=1, max_size=3)),
    )


# every object in a config dict that takes keys, as a path from the root
SECTIONS = (
    (),
    ("problem",),
    ("topology",),
    ("units", 0),
    ("units", 0, "dynamics"),
    ("units", 0, "transform"),
    ("units", 0, "spike"),
    ("units", 0, "dynamics", "params"),
)


@settings(max_examples=200, deadline=None)
@given(run_configs())
def test_dict_round_trip(cfg):
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@settings(max_examples=200, deadline=None)
@given(
    run_configs(),
    st.sampled_from(SECTIONS),
    st.text(min_size=1, max_size=8),
    st.integers() | st.text() | st.none(),
)
def test_any_unknown_key_rejected(cfg, section, suffix, value):
    data = copy.deepcopy(cfg.to_dict())
    node = data
    for key in section:
        node = node[key]
    node["x_" + suffix] = value  # no accepted key starts with "x_"
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_dict(data)
