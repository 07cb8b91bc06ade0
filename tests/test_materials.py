"""Potentials, mobilities and the regularization ladder."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chns import checks, materials
from chns.config import build_simulation, parse_config
from chns.errors import DomainError, ParameterError
from chns.materials import (
    EPS_MAX,
    EntropyFunction,
    MobilitySpec,
    PotentialSpec,
    _degenerate_core,
    _elementwise,
    _entropy_core,
    _regularized_f1,
    constant_mobility,
    degenerate_mobility,
    logarithmic_potential,
    mobility_value,
    potential_concave_deriv,
    potential_convex_deriv,
    potential_deriv,
    potential_value,
    regular_potential,
    regularize_mobility,
    regularize_potential,
)

from conftest import spy

REG = regular_potential()
LOG = logarithmic_potential(theta=0.15, theta_c=0.3)


# ---------------------------------------------------------------------------
# potential values

def test_regular_well_minimum():
    assert potential_value(REG, 1.0) == 0.0
    assert potential_value(REG, -1.0) == 0.0
    assert potential_value(REG, 0.0) == 1.0


def test_regular_derivatives_at_landmarks():
    assert potential_deriv(REG, 1.0, 1) == 0.0
    assert potential_deriv(REG, 0.0, 2) == -4.0


def test_logarithmic_value_at_zero():
    spec = logarithmic_potential(theta=0.1, theta_c=0.2)
    assert potential_value(spec, 0.0) == pytest.approx(0.1, abs=1e-15)


def test_logarithmic_even_symmetry():
    s = np.linspace(-0.95, 0.95, 101)
    assert np.abs(potential_value(LOG, s) - potential_value(LOG, -s)).max() == 0.0


def test_logarithmic_derivative_blows_up():
    vals = [potential_deriv(LOG, 1.0 - 10.0**-k, 1) for k in (4, 8, 12)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1.5
    neg = [potential_deriv(LOG, -1.0 + 10.0**-k, 1) for k in (4, 8, 12)]
    assert neg[0] > neg[1] > neg[2]


def test_logarithmic_domain_guard():
    with pytest.raises(DomainError):
        potential_value(LOG, 1.0)
    with pytest.raises(DomainError) as err:
        potential_value(LOG, np.array([0.0, 1.0 - 1e-15, -1.0]))
    assert "2" in str(err.value)


def test_logarithmic_potential_needs_theta_below_theta_c():
    with pytest.raises(ParameterError, match="need 0 < theta < theta_c, got theta=0.3, theta_c=0.3"):
        logarithmic_potential(theta=0.3, theta_c=0.3)


def test_deriv_order_validation():
    with pytest.raises(ParameterError):
        potential_deriv(REG, 0.0, 3)


@pytest.mark.parametrize(
    "spec,lo,hi",
    [(REG, -2.0, 2.0), (LOG, -0.95, 0.95), (regularize_potential(LOG, 0.1), -2.0, 2.0)],
)
def test_derivatives_match_central_differences(spec, lo, hi):
    s, h = np.linspace(lo, hi, 1000), 1e-6  # finite-difference oracles, 1000 points
    an1, an2 = potential_deriv(spec, s, 1), potential_deriv(spec, s, 2)
    assert checks.derivative_defect(spec, s, h) <= 1e-6 * max(1.0, np.abs(an1).max())
    fd2 = (potential_deriv(spec, s + h, 1) - potential_deriv(spec, s - h, 1)) / (2 * h)
    assert np.abs(fd2 - an2).max() <= 1e-6 * max(1.0, np.abs(an2).max())


@pytest.mark.parametrize("spec", [REG, LOG, regularize_potential(LOG, 0.1)])
def test_convexity_defect_bound(spec):
    s = np.linspace(max(spec.domain[0], -2.5) + 1e-3, min(spec.domain[1], 2.5) - 1e-3, 2000)
    assert checks.convexity_defect(spec, s) <= 1e-10
    assert checks.potential_floor_defect(spec, s) <= 1e-12


@pytest.mark.parametrize("spec", [REG, LOG, regularize_potential(LOG, 0.2)])
def test_convex_concave_split(spec):
    s, h = np.linspace(max(spec.domain[0], -2.0) + 1e-3, min(spec.domain[1], 2.0) - 1e-3, 500), 1e-5
    # the step's split of F' = (F' + c0 s) - c0 s: both parts share c0
    an1 = potential_deriv(spec, s, 1)
    split = potential_convex_deriv(spec, s) + potential_concave_deriv(spec, s)
    assert np.abs(split - an1).max() <= 1e-12 * max(1.0, np.abs(an1).max())
    conv2 = (potential_convex_deriv(spec, s + h) - potential_convex_deriv(spec, s - h)) / (2 * h)
    assert float(np.min(conv2)) >= -1e-10  # the convex part's sampled F'' is nonnegative


# ---------------------------------------------------------------------------
# regularized potential

def test_regular_potential_growth_envelope():
    # the growth hypothesis |F'| <= C1 |s|^p + C2 and
    # |F''| <= C3 (1 + |s|^(p-1)) with p = 3, on a wide sample
    s = np.linspace(-5.0, 5.0, 4001)
    c1, c2, c3, p = 4.0, 4.0, 12.0, 3.0
    assert np.all(np.abs(potential_deriv(REG, s, 1)) <= c1 * np.abs(s) ** p + c2)
    assert np.all(
        np.abs(potential_deriv(REG, s, 2)) <= c3 * (1.0 + np.abs(s) ** (p - 1))
    )


def test_regularize_potential_parameter_range():
    with pytest.raises(ParameterError):
        regularize_potential(LOG, 0.0)
    with pytest.raises(ParameterError):
        regularize_potential(LOG, 0.7)
    with pytest.raises(ParameterError):
        regularize_potential(REG, 0.1)


@pytest.mark.parametrize("eps", [1e-17, 1e-320])
def test_clamp_width_needs_a_joint_below_one(eps):
    # 1 - eps == 1.0 divided by zero in the joint constants of the potential
    # and gave the clamped mobility a lower bound m1 = 0
    message = re.escape(f"need 1 - eps < 1 in floating point, got eps={eps}")
    with pytest.raises(ParameterError, match=message):
        regularize_potential(LOG, eps)
    with pytest.raises(ParameterError, match=message):
        regularize_mobility(degenerate_mobility(1), eps)


def test_the_least_eps_whose_joint_is_below_one_is_accepted():
    eps = 2.0**-53  # 1 - eps is the float just below 1
    spec = regularize_potential(LOG, eps)
    mob = regularize_mobility(degenerate_mobility(1), eps)
    assert spec.eps == mob.eps == eps and mob.m1 > 0.0
    s = np.array([-1.5, 0.0, 1.0 - eps, 1.5])
    assert np.isfinite(potential_value(spec, s)).all()
    assert np.isfinite(EntropyFunction(mob).value(s)).all()


def test_regularized_matches_base_inside_clamp():
    for eps in (0.2, 0.1, 0.05):
        spec = regularize_potential(LOG, eps)
        s = np.linspace(-(1 - eps), 1 - eps, 1001)
        assert checks.clamp_mismatch(LOG, spec, s) == 0.0
        assert np.abs(potential_deriv(spec, s, 1) - potential_deriv(LOG, s, 1)).max() == 0.0


def test_regularized_defined_on_whole_line():
    spec = regularize_potential(LOG, 0.1)
    s = np.linspace(-4.0, 4.0, 2001)
    assert np.isfinite(potential_value(spec, s)).all()
    assert checks.convexity_defect(spec, s) <= 1e-10


# ---------------------------------------------------------------------------
# mobilities

def test_degenerate_mobility_values():
    m = degenerate_mobility(n=1)
    assert mobility_value(m, 0.0) == 1.0
    assert mobility_value(m, 1.0) == 0.0
    assert mobility_value(m, -1.0) == 0.0
    assert mobility_value(m, 1.5) == 0.0  # extension by zero
    m2 = degenerate_mobility(n=2)
    assert mobility_value(m2, 0.5) == pytest.approx(0.75**2, abs=1e-15)


def test_degenerate_monotone_near_pure_phases():
    m = degenerate_mobility(n=1)
    s = np.linspace(0.5, 1.0, 200)
    vals = mobility_value(m, s)
    assert np.all(np.diff(vals) <= 0)


def test_constant_mobility():
    m = constant_mobility(2.5)
    assert mobility_value(m, -3.0) == 2.5
    assert m.m1 == 2.5
    with pytest.raises(ParameterError):
        constant_mobility(0.0)


def test_clamped_mobility_formula():
    m = regularize_mobility(degenerate_mobility(n=1), 0.1)
    assert mobility_value(m, 0.99) == pytest.approx(0.19, abs=1e-15)
    assert mobility_value(m, -5.0) == pytest.approx(0.19, abs=1e-15)
    s = np.linspace(-0.9, 0.9, 101)
    base = degenerate_mobility(n=1)
    assert np.abs(mobility_value(m, s) - mobility_value(base, s)).max() == 0.0
    assert m.m1 == pytest.approx(0.19, abs=1e-15)
    assert m.m1 > 0


def test_clamp_distance_shrinks_with_eps():
    # sup |m_eps - m| = m(1 - eps) = 2 eps - eps^2 for the quadratic family
    base = degenerate_mobility(n=1)
    s = np.linspace(-1.3, 1.3, 8001)
    sups = []
    for eps in (0.2, 0.1, 0.05):
        clamped = regularize_mobility(base, eps)
        gap = np.abs(mobility_value(clamped, s) - mobility_value(base, s)).max()
        assert gap == pytest.approx(2 * eps - eps**2, abs=1e-12)
        sups.append(gap)
    assert sups[0] > sups[1] > sups[2]


def test_mobility_parameter_errors():
    with pytest.raises(ParameterError):
        regularize_mobility(constant_mobility(1.0), 0.1)
    with pytest.raises(ParameterError):
        regularize_mobility(degenerate_mobility(1), 0.9)
    with pytest.raises(ParameterError):
        degenerate_mobility(0)
    assert degenerate_mobility(1).m1 == 0.0  # no positive lower bound


# ---------------------------------------------------------------------------
# entropy function

def test_entropy_constant_mobility_is_quadratic():
    ent = EntropyFunction(constant_mobility(1.0))
    assert checks.entropy_quadratic_defect(np.linspace(-3, 3, 601)) <= 1e-8
    assert ent.value(0.0) == 0.0
    assert ent.derivative(0.0) == 0.0


def test_entropy_anchored_and_convex():
    mob = regularize_mobility(degenerate_mobility(1), 0.1)
    ent = EntropyFunction(mob)
    assert ent.value(0.0) == 0.0
    assert abs(ent.derivative(0.0)) <= 1e-14
    s = np.linspace(-1.4, 1.4, 401)
    h = 1e-4
    second = (ent.derivative(s + h) - ent.derivative(s - h)) / (2 * h)
    assert float(np.min(second)) > 0.0
    # away from the clamp joints (where G''' jumps) G'' matches 1/m
    smooth = np.abs(np.abs(s) - 0.9) > 5 * h
    inv_m = 1.0 / np.asarray(mobility_value(mob, s))
    assert np.abs(second[smooth] - inv_m[smooth]).max() <= 1e-4 * inv_m.max()
    assert float(np.min(ent.value(s))) >= 0.0


def test_entropy_requires_bounded_mobility():
    with pytest.raises(ParameterError):
        EntropyFunction(degenerate_mobility(1))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    eps=st.floats(0.01, 0.5),
    s=st.floats(-2.0, 2.0),
)
def test_entropy_shape_property(n, eps, s):
    mob = regularize_mobility(degenerate_mobility(n), eps)
    ent = EntropyFunction(mob)
    g, gp = ent.value(s), ent.derivative(s)
    assert g >= 0.0
    assert ent.value(-s) == g and ent.derivative(-s) == -gp
    # continuous across the clamp joints, where the Taylor tails take over
    for a in (1.0 - eps, eps - 1.0):
        beyond = np.nextafter(a, 2.0 * a)
        assert ent.value(beyond) == pytest.approx(ent.value(a), rel=1e-12)
        assert ent.derivative(beyond) == pytest.approx(ent.derivative(a), rel=1e-12)
    # Taylor lower bound beyond the pure phases: G(s) >= (|s| - 1)^2 / (2 m(1 - eps))
    if abs(s) > 1.0:
        assert g >= (abs(s) - 1.0) ** 2 / (2.0 * mobility_value(mob, 1.0 - eps))


@pytest.mark.parametrize("eps", [0.5, 0.2, 0.05, 0.01])
def test_entropy_n1_is_the_regularized_log_part(eps):
    # (1 - s^2)^-1 integrates to theta/2 [(1+s)log(1+s) + (1-s)log(1-s)] at theta = 1
    ent = EntropyFunction(regularize_mobility(degenerate_mobility(1), eps))
    f1 = regularize_potential(logarithmic_potential(theta=1.0, theta_c=2.0), eps)
    s = np.linspace(-2.0, 2.0, 4001)
    for order, ours in ((0, ent.value(s)), (1, ent.derivative(s))):
        ref = _regularized_f1(f1, s, order)
        assert np.abs(ours - ref).max() <= 1e-14


def _integral_from_zero(f, s, sc):
    """int_0^s f for s >= 0, split at the clamp joint sc where f kinks."""
    from scipy.integrate import quad

    ends = [0.0, min(s, sc), s]
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for a, b in zip(ends, ends[1:]) if b > a)


@pytest.mark.parametrize(
    "mob",
    [constant_mobility(1.0)]
    + [
        regularize_mobility(degenerate_mobility(n), eps)
        for n in (1, 2, 3)
        for eps in (0.05, 0.3)
    ],
)
def test_entropy_matches_iterated_quad(mob):
    ent = EntropyFunction(mob)
    sc = 1.0 - mob.eps

    def gp(t):
        return _integral_from_zero(lambda u: 1.0 / mobility_value(mob, u), t, sc)

    for s in (1e-6, 0.3, sc, 1.7):  # 1e-6: G ~ s^2/2 must keep its digits
        assert ent.derivative(s) == pytest.approx(gp(s), rel=1e-10, abs=0.0)
        assert ent.value(s) == pytest.approx(_integral_from_zero(gp, s, sc), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_entropy_second_derivative_is_inverse_mobility(n):
    mob = regularize_mobility(degenerate_mobility(n), 0.05)
    s = np.linspace(-0.95, 0.95, 1001)
    assert (_entropy_core(mob, s, 2) == 1.0 / mobility_value(mob, s)).all()


def test_entropy_is_the_same_for_every_clamp_on_the_shared_core():
    s = np.linspace(-0.5, 0.5, 1001)
    for n in (1, 2, 3):
        ents = [EntropyFunction(regularize_mobility(degenerate_mobility(n), eps))
                for eps in (0.5, 0.2, 0.05, 0.01)]
        for ent in ents[1:]:
            assert ent.value(s).tobytes() == ents[0].value(s).tobytes()
            assert ent.derivative(s).tobytes() == ents[0].derivative(s).tobytes()


def test_unknown_kinds_are_named():
    # a config cannot build these; a spec built directly reaches the guards
    with pytest.raises(ParameterError, match="unknown potential kind 'quartic'"):
        potential_value(PotentialSpec(kind="quartic"), 0.0)
    with pytest.raises(ParameterError, match="unknown mobility kind 'linear'"):
        mobility_value(MobilitySpec(kind="linear"), 0.0)


def test_entropy_rejects_negative_mobility():
    # constant_mobility refuses it, so build the spec directly; a negative
    # value, because 1/0 would raise numpy's divide warning first
    with pytest.raises(ParameterError, match="strictly positive on the core interval"):
        EntropyFunction(MobilitySpec(kind="constant", value=-1.0))


_REGULARIZED = regularize_potential(LOG, 0.1)
_CLAMPED = regularize_mobility(degenerate_mobility(2), 0.2)
_ENTROPY = EntropyFunction(_CLAMPED)
_EVALUATORS = {
    "potential_value": lambda s: potential_value(_REGULARIZED, s),
    "potential_deriv": lambda s: potential_deriv(_REGULARIZED, s, 2),
    "potential_convex_deriv": lambda s: potential_convex_deriv(_REGULARIZED, s),
    "potential_concave_deriv": lambda s: potential_concave_deriv(_REGULARIZED, s),
    "mobility_value": lambda s: mobility_value(_CLAMPED, s),
    "EntropyFunction.value": _ENTROPY.value,
    "EntropyFunction.derivative": _ENTROPY.derivative,
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
def test_evaluators_return_float_for_float_and_array_for_array(name):
    # callers use the results as they come: no np.asarray, no float()
    evaluate = _EVALUATORS[name]
    s = np.linspace(-1.3, 1.3, 12).reshape(3, 4)  # both sides of the clamps
    out = evaluate(s)
    assert type(out) is np.ndarray and out.shape == s.shape
    for idx in np.ndindex(s.shape):
        value = evaluate(float(s[idx]))
        assert type(value) is float and value == out[idx]


# ---------------------------------------------------------------------------
# the continuation runs only when a sample lies beyond the joint

def _general_taylor(core, param, sc, s, order):
    """`materials._taylor_continued` as every input ran it before the
    inside-only shortcut: joint constants, clip, both polynomials, where."""
    v0, d0, c0 = (core(param, sc, k) for k in range(3))
    inside = core(param, np.clip(s, -sc, sc), order)
    if order == 0:
        hi = v0 + d0 * (s - sc) + 0.5 * c0 * (s - sc) ** 2
        lo = v0 - d0 * (s + sc) + 0.5 * c0 * (s + sc) ** 2
    elif order == 1:
        hi = d0 + c0 * (s - sc)
        lo = -d0 + c0 * (s + sc)
    else:
        hi = lo = np.full_like(s, c0)
    return np.where(s > sc, hi, np.where(s < -sc, lo, inside))


@_elementwise
def _general_clamped_mobility(spec, s):
    """The clamped branch of `mobility_value` before the shortcut."""
    sc = 1.0 - spec.eps
    return _degenerate_core(spec, np.clip(s, -sc, sc))


def _outcome(evaluate, s):
    """Everything a caller sees of ``evaluate(s)``: type, shape, dtype, the
    bytes of the value and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = evaluate(s)
    value = np.asarray(out)
    return type(out), value.shape, value.dtype, value.tobytes(), [str(w.message) for w in caught]


@st.composite
def _clamp_and_samples(draw):
    """(eps, s): samples all inside the joint +-(1 - eps), or drawn from the
    joints, their outer neighbours, [-2, 2] and every float; any shape from
    0-d to 2-d, empty ones included, and a 0-d one sometimes as a float."""
    eps = draw(st.floats(0.01, EPS_MAX))
    sc = 1.0 - eps
    inside = st.floats(-sc, sc)
    joints = st.sampled_from([sc, -sc, np.nextafter(sc, np.inf), np.nextafter(-sc, -np.inf)])
    anywhere = st.one_of(inside, joints, st.floats(-2.0, 2.0), st.floats())
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    s = draw(hnp.arrays(np.float64, shape, elements=draw(st.sampled_from([inside, anywhere]))))
    return eps, float(s) if s.ndim == 0 and draw(st.booleans()) else s


_SC = 1.0 - 0.2


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), case=_clamp_and_samples())
@example(n=2, case=(0.2, np.linspace(-0.5, 0.5, 11)))  # all inside
@example(n=2, case=(0.2, np.array([-_SC, 0.0, _SC])))  # exactly on the joints
@example(n=1, case=(0.2, np.array([np.nextafter(_SC, np.inf)])))  # just beyond
@example(n=3, case=(0.2, np.array([np.nextafter(-_SC, -np.inf), 0.0])))
@example(n=2, case=(0.2, np.array([0.0, 0.5, 1.3, -0.7])))  # one beyond
@example(n=2, case=(0.2, np.array([0.1, np.nan])))
@example(n=2, case=(0.2, np.array([np.nan, 1.3])))  # a nan must not hide a sample beyond
@example(n=2, case=(0.2, np.array([np.inf, 0.0, -np.inf])))
@example(n=2, case=(0.2, np.array([-0.0, 0.0])))
@example(n=2, case=(0.2, -0.0))
@example(n=2, case=(0.2, np.array(0.3)))  # 0-d
@example(n=2, case=(0.2, 0.3))  # a Python float
@example(n=2, case=(0.2, 1.7))
@example(n=2, case=(0.2, np.array([])))
@example(n=2, case=(0.2, np.empty((0, 4))))
def test_regularized_materials_match_the_general_path(n, case):
    # skipping the continuation when no sample lies beyond the joint must not
    # change a bit, a type, a shape or a warning of any evaluator
    eps, s = case
    spec = regularize_potential(LOG, eps)
    mob = regularize_mobility(degenerate_mobility(n), eps)
    ent = EntropyFunction(mob)
    continued = {
        "potential_value": lambda s: potential_value(spec, s),
        "potential_deriv 1": lambda s: potential_deriv(spec, s, 1),
        "potential_deriv 2": lambda s: potential_deriv(spec, s, 2),
        "potential_convex_deriv": lambda s: potential_convex_deriv(spec, s),
        "EntropyFunction.value": ent.value,
        "EntropyFunction.derivative": ent.derivative,
    }
    for name, evaluate in continued.items():
        ours = _outcome(evaluate, s)
        with mock.patch.object(materials, "_taylor_continued", _general_taylor):
            assert ours == _outcome(evaluate, s), name
    assert (_outcome(lambda s: mobility_value(mob, s), s)
            == _outcome(lambda s: _general_clamped_mobility(mob, s), s))


_REGULARIZED_RUN = """grid.n = 16
potential.kind = regularized
potential.epsilon = 0.2
mobility.kind = clamped
mobility.epsilon = 0.2
init.noise_amp = 0.05
"""


def test_a_step_clips_only_when_a_sample_lies_beyond_the_joint(monkeypatch):
    cfg = parse_config(_REGULARIZED_RUN)
    calls = []
    spy(monkeypatch, calls, 1, "clip", materials.np)
    sim = build_simulation(cfg)
    sim.step()
    assert np.abs(sim.state.phi.data).max() < 0.8 and calls == []
    phi = sim.state.phi.data.copy()
    phi[3, 5] = 0.9  # one sample beyond the joint at 0.8
    build_simulation(cfg, phi=phi).step()
    assert len(calls) >= 1
