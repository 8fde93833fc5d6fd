"""The core step gives the same bytes as the reference core in ``reference_core``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_core import reference_core_step
from spikeopt.dynamics import IzhikevichModel, LIFModel, LinearModel
from spikeopt.heuristics import (
    CONDITION_VARIANTS,
    DIRECTIONAL_TARGETS,
    RULE_VARIANTS,
    THRESHOLD_VARIANTS,
    SpikeCondition,
    SpikeRule,
    ThresholdRule,
    step_variates,
)
from spikeopt.problem import default_domain
from spikeopt.transform import SELF_GLOBAL_NEIGHBOUR_AVERAGE, XREF_STRATEGIES, TransformParams
from spikeopt.unit import UnitParams, spiking_core_step

FIELDS = ("s", "x", "v_pre", "v_post", "theta")


def _condition(draw, variant, rng):
    if variant == "weighted_minkowski":
        angle = rng.uniform(0.0, np.pi / 2)
        weights = draw(st.sampled_from([None, (np.cos(angle), np.sin(angle))]))
        return SpikeCondition(variant, q=draw(st.sampled_from([1.0, 2.0, 3.0])), weights=weights)
    if variant == "shrinking_ball":
        return SpikeCondition(variant, epsilon_spk=rng.uniform(0.1, 20.0))
    if variant == "disc":
        attractor = rng.uniform(0.1, 3.0)
        return SpikeCondition(variant, theta_attractor=attractor, theta_repeller=attractor + rng.uniform(0.1, 3.0))
    return SpikeCondition(variant)


@st.composite
def core_cases(draw):
    """A unit, its rows and its variates; a small value pool makes neighbour ties likely."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    # P_n of None stands for the unit's own best, one neighbour row
    own_neighbourhood = draw(st.booleans())
    condition = draw(st.sampled_from(CONDITION_VARIANTS))
    model = draw(st.sampled_from(["linear", "izhikevich", "lif"]))
    if condition == "disc" or model == "linear":
        model = LinearModel(A=rng.uniform(-3.0, 3.0, size=(2, 2)))
    elif model == "izhikevich":
        model = IzhikevichModel()
    else:
        model = LIFModel(tau_m=rng.uniform(1.0, 20.0))
    strategy = draw(st.sampled_from(XREF_STRATEGIES))
    weights = None
    if draw(st.booleans()):
        k = 2 + (1 if own_neighbourhood else m) if strategy == SELF_GLOBAL_NEIGHBOUR_AVERAGE else 2
        w = rng.uniform(0.1, 1.0, size=k)
        weights = w / w.sum()
        weights[-1] = 1.0 - weights[:-1].sum()
    transform = TransformParams(
        gain=rng.uniform(0.2, 3.0),
        retained_noise=rng.uniform(size=d),
        reference_strategy=strategy,
        weights=weights,
    )
    p_cr = draw(st.sampled_from([None, 0.0, 0.5, 1.0]))
    rule = SpikeRule(
        draw(st.sampled_from(RULE_VARIANTS)),
        sigma=rng.uniform(0.0, 1.0),
        alpha_d=rng.uniform(0.1, 2.0),
        target=draw(st.sampled_from(DIRECTIONAL_TARGETS)),
        F=rng.uniform(0.0, 2.0),
        p_cr=p_cr,
    )
    params = UnitParams(
        model=model,
        integrator=draw(st.sampled_from(["euler", "rk4"])),
        dt=rng.uniform(0.001, 0.1),
        transform=transform,
        threshold_rule=ThresholdRule(draw(st.sampled_from(THRESHOLD_VARIANTS)), rng.uniform(0.05, 4.0)),
        condition=_condition(draw, condition, rng),
        rule=rule,
    )
    pool = rng.uniform(-5.0, 5.0, size=draw(st.integers(1, 4)))

    def rows(shape):
        if draw(st.booleans()):
            return rng.choice(pool, size=shape)
        return rng.uniform(-5.0, 5.0, size=shape)

    x, p = rows(d), rows(d)
    g = None if draw(st.booleans()) else rows(d)
    # the driver hands the core a strided slice of the (m, d, n) tensor
    P_n = None if own_neighbourhood else rows((m, d, 3))[:, :, 1]
    a = rng.random(d) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    z, u = step_variates(rng, d)
    t = draw(st.integers(0, 50))
    return params, (default_domain(d), t, x, p, g, a, P_n, z, u)


def _outcome(core, params, args):
    with np.errstate(all="ignore"):
        try:
            return core(params, *args)
        except (FloatingPointError, RuntimeError) as exc:
            return type(exc)


@settings(max_examples=400, deadline=None)
@given(core_cases())
def test_core_step_matches_reference_byte_for_byte(case):
    params, args = case
    lean = _outcome(spiking_core_step, params, args)
    reference = _outcome(reference_core_step, params, args)
    if isinstance(reference, type):
        assert lean is reference
        return
    for name in FIELDS:
        got, want = getattr(lean, name), getattr(reference, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert lean.fallbacks == reference.fallbacks
