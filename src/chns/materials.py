"""Double-well potentials, mobilities and their regularizations.

Three potential families are supported:

* ``regular``      F(s) = (s^2 - 1)^2 on all of R,
* ``logarithmic``  F(s) = theta/2 [(1+s)log(1+s) + (1-s)log(1-s)]
                         + theta_c/2 (1 - s^2) on (-1, 1), 0 < theta < theta_c,
* ``regularized``  the logarithmic family with its singular part replaced
  by the quadratic Taylor extension beyond |s| = 1 - eps (second derivative
  clamped at the joints), which lives on all of R.

Every family carries a convexity-defect constant ``c0`` with
F''(s) >= -c0, and the solver's convex/concave splitting is
F = (F + c0 s^2/2) - c0 s^2/2.

Mobilities: ``constant``, ``degenerate`` m(s) = (1-s^2)^n (extended by
zero outside [-1, 1]) and its ``clamped`` version m_eps, constant outside
|s| <= 1 - eps; a config builds only the constant and clamped kinds.

`EntropyFunction` integrates G'' = 1/m_eps twice from 0 (composite Simpson
tables in the core interval, exact quadratic tails where m_eps is
constant).  The tables use the cumulative irregular-spacing Simpson rule of
Cartwright (J. Math. Sci. & Math. Educ. 12(2), 2017, eqn (8)), written out
here in the operation order of scipy's ``cumulative_simpson`` so the
result is bitwise equal to scipy's without loading its integrate stack.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "PotentialSpec",
    "MobilitySpec",
    "EntropyFunction",
    "regular_potential",
    "logarithmic_potential",
    "regularize_potential",
    "potential_value",
    "potential_deriv",
    "potential_convex_deriv",
    "potential_concave_deriv",
    "potential_convex_value",
    "potential_concave_value",
    "constant_mobility",
    "degenerate_mobility",
    "regularize_mobility",
    "mobility_value",
]

POTENTIAL_KINDS = ("regular", "logarithmic", "regularized")
_LOG_GUARD = 1e-14
EPS_MAX = 0.5  # widest clamp: eps in (0, EPS_MAX] for both regularizations
_ENTROPY_RESOLUTION = 512  # Simpson panels per unit of s in the entropy tables


def _elementwise(fn):
    """Evaluate ``fn(owner, s, ...)`` on ``s`` as a float array, so the laws
    below are written for arrays only; a scalar ``s`` gives a float back."""

    @functools.wraps(fn)
    def evaluate(owner, s, *args, **kwargs):
        out = fn(owner, np.asarray(s, dtype=float), *args, **kwargs)
        return out if np.ndim(s) else float(out)

    return evaluate


@dataclass(frozen=True)
class PotentialSpec:
    """Immutable description of one double-well potential."""

    kind: str
    theta: float = 0.0
    theta_c: float = 0.0
    c0: float = 0.0
    eps: float = 0.0

    @property
    def domain(self):
        """Open admissible interval for the argument."""
        if self.kind == "logarithmic":
            return (-1.0, 1.0)
        return (-math.inf, math.inf)


def regular_potential(c0=4.0):
    """Quartic double well (s^2 - 1)^2 with wells at +-1."""
    return PotentialSpec(kind="regular", c0=float(c0))


def logarithmic_potential(theta=0.15, theta_c=0.3):
    """Singular logarithmic well on (-1, 1), temperatures 0 < theta < theta_c."""
    theta = float(theta)
    theta_c = float(theta_c)
    if not (0.0 < theta < theta_c):
        raise ParameterError(
            f"need 0 < theta < theta_c, got theta={theta}, theta_c={theta_c}"
        )
    return PotentialSpec(
        kind="logarithmic",
        theta=theta,
        theta_c=theta_c,
        c0=theta_c - theta,
    )


def regularize_potential(spec, eps):
    """Quadratic Taylor extension of the singular part beyond |s| = 1 - eps.

    The extension keeps value and slope at 0 and clamps the second
    derivative at the joints, so it coincides with the base potential for
    |s| <= 1 - eps and is defined on all of R.
    """
    if spec.kind != "logarithmic":
        raise ParameterError(f"can only regularize the logarithmic kind, got {spec.kind}")
    return PotentialSpec(
        kind="regularized",
        theta=spec.theta,
        theta_c=spec.theta_c,
        c0=spec.c0,
        eps=_clamp_width(eps),
    )


def _clamp_width(eps):
    """``eps`` as a float in (0, EPS_MAX], the clamp width of both regularizations."""
    eps = float(eps)
    if not (0.0 < eps <= EPS_MAX):
        raise ParameterError(f"need 0 < eps <= {EPS_MAX}, got eps={eps}")
    return eps


# -- logarithmic singular part and its derivatives --------------------------

def _log_part(theta, s, order):
    """theta/2 [(1+s)log(1+s) + (1-s)log(1-s)] or its derivative of ``order``."""
    if order == 0:
        return 0.5 * theta * ((1.0 + s) * np.log1p(s) + (1.0 - s) * np.log1p(-s))
    if order == 1:
        return 0.5 * theta * (np.log1p(s) - np.log1p(-s))
    return theta / (1.0 - s * s)


def _regularized_f1(spec, s, order):
    """F1_eps and derivatives: base inside |s| <= 1-eps, Taylor outside."""
    th = spec.theta
    sc = 1.0 - spec.eps
    v0, d0, c0 = (_log_part(th, sc, k) for k in range(3))
    core = _log_part(th, np.clip(s, -sc, sc), order)
    if order == 0:
        hi = v0 + d0 * (s - sc) + 0.5 * c0 * (s - sc) ** 2
        lo = v0 - d0 * (s + sc) + 0.5 * c0 * (s + sc) ** 2
    elif order == 1:
        hi = d0 + c0 * (s - sc)
        lo = -d0 + c0 * (s + sc)
    else:
        hi = lo = np.full_like(s, c0)
    return np.where(s > sc, hi, np.where(s < -sc, lo, core))


def _eval_potential(spec, s, order):
    """F or its derivative of ``order`` on the float array ``s``."""
    if spec.kind == "regular":
        if order == 0:
            return (s**2 - 1.0) ** 2
        if order == 1:
            return 4.0 * s * (s**2 - 1.0)
        return 12.0 * s**2 - 4.0
    if spec.kind == "logarithmic":
        bad = int(np.count_nonzero(1.0 - np.abs(s) < _LOG_GUARD))
        if bad:
            raise DomainError(
                f"logarithmic potential evaluated within 1e-14 of +-1 at {bad} sample(s)"
            )
        f1 = _log_part(spec.theta, s, order)
    elif spec.kind == "regularized":
        f1 = _regularized_f1(spec, s, order)
    else:
        raise ParameterError(f"unknown potential kind {spec.kind!r}")
    # the theta_c quadratic of both singular kinds
    if order == 0:
        return f1 + 0.5 * spec.theta_c * (1.0 - s**2)
    if order == 1:
        return f1 - spec.theta_c * s
    return f1 - spec.theta_c


@_elementwise
def potential_value(spec, s):
    """F(s); raises DomainError outside the admissible interval."""
    return _eval_potential(spec, s, 0)


@_elementwise
def potential_deriv(spec, s, order=1):
    """Analytic first or second derivative of F."""
    if order not in (1, 2):
        raise ParameterError(f"derivative order must be 1 or 2, got {order}")
    return _eval_potential(spec, s, order)


@_elementwise
def potential_convex_deriv(spec, s):
    """Derivative of the convex split part, F'(s) + c0 s."""
    return _eval_potential(spec, s, 1) + spec.c0 * s


@_elementwise
def potential_concave_deriv(spec, s):
    """Derivative of the concave split part, -c0 s."""
    return -spec.c0 * s


@_elementwise
def potential_convex_value(spec, s):
    return _eval_potential(spec, s, 0) + 0.5 * spec.c0 * s**2


@_elementwise
def potential_concave_value(spec, s):
    return -0.5 * spec.c0 * s**2


# ---------------------------------------------------------------------------
# mobilities

@dataclass(frozen=True)
class MobilitySpec:
    """Immutable description of one mobility law."""

    kind: str
    value: float = 1.0
    n: int = 1
    eps: float = 0.0
    m1: float = 0.0  # positive lower bound of m (0 for the degenerate kind)


def constant_mobility(value=1.0):
    value = float(value)
    if value <= 0.0:
        raise ParameterError(f"constant mobility must be positive, got {value}")
    return MobilitySpec(kind="constant", value=value, m1=value)


def degenerate_mobility(n=1):
    """m(s) = (1 - s^2)^n, zero at the pure phases and outside [-1, 1]."""
    n = int(n)
    if n < 1:
        raise ParameterError(f"degeneracy exponent must be >= 1, got {n}")
    return MobilitySpec(kind="degenerate", n=n)


def regularize_mobility(spec, eps):
    """Clamp a degenerate mobility to its values at |s| = 1 - eps."""
    if spec.kind != "degenerate":
        raise ParameterError(f"can only clamp the degenerate kind, got {spec.kind}")
    eps = _clamp_width(eps)
    clamped = MobilitySpec(kind="clamped", n=spec.n, eps=eps)
    lo = mobility_value(clamped, -1.0 + eps)
    hi = mobility_value(clamped, 1.0 - eps)
    return MobilitySpec(kind="clamped", n=spec.n, eps=eps, m1=min(lo, hi))


def _degenerate_core(spec, s):
    return (1.0 - s * s) ** spec.n


@_elementwise
def mobility_value(spec, s):
    """m(s) >= 0, vectorized."""
    if spec.kind == "constant":
        return np.full_like(s, spec.value)
    if spec.kind == "degenerate":
        inside = np.clip(s, -1.0, 1.0)
        return np.where(np.abs(s) <= 1.0, _degenerate_core(spec, inside), 0.0)
    if spec.kind == "clamped":
        sc = 1.0 - spec.eps
        return _degenerate_core(spec, np.clip(s, -sc, sc))
    raise ParameterError(f"unknown mobility kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# entropy function  G'' = 1/m, G(0) = G'(0) = 0

def _simpson_first_halves(y, dx):
    """Simpson integral over the first sub-interval of every node triple.

    Cartwright 2017, eqn (8), for unequal widths x21 = dx[i], x32 = dx[i+1].
    Reversed inputs give the second sub-intervals, reversed.
    """
    x21 = dx[:-1]
    x32 = dx[1:]
    x21_x31 = x21 / (x21 + x32)
    x21x21_x31x32 = x21_x31 * (x21 / x32)
    c1 = 3 - x21_x31
    c2 = 3 + x21x21_x31x32 + x21_x31
    c3 = -x21x21_x31x32
    return x21 / 6 * (c1 * y[:-2] + c2 * y[1:-1] + c3 * y[2:])


def _cumulative_simpson(y, x):
    """Cumulative composite Simpson integral of y over strictly increasing x.

    Equals scipy's ``cumulative_simpson(y, x=x, initial=0.0)`` bit for
    bit (same operations in the same order) for 1-D float arrays of
    length >= 3.  Intervals are taken in pairs, each pair integrated half by
    half under the parabola through its three nodes; an odd last interval
    uses the parabola through the last three nodes.
    """
    dx = np.diff(x)
    h1 = _simpson_first_halves(y, dx)
    h2 = _simpson_first_halves(y[::-1], dx[::-1])[::-1]
    sub = np.empty(len(dx))
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    # scipy adds `initial` (0.0) to every sum, which turns -0.0 into 0.0
    return np.concatenate(([0.0], np.cumsum(sub) + 0.0))


class EntropyFunction:
    """Double integral of 1/m from 0, for bounded (clamped/constant) mobility.

    Composite-Simpson cumulative tables (`_cumulative_simpson`, Cartwright
    2017 eqn (8), bitwise equal to scipy's ``cumulative_simpson``) cover the
    core interval where the mobility varies; outside it the mobility is
    constant and the exact quadratic continuation is used.  Point
    evaluation inside the table is Hermite-cubic in (G, G'), so constant
    mobility reproduces s^2/2 to roundoff.
    """

    def __init__(self, mobility):
        if mobility.kind not in ("constant", "clamped"):
            raise ParameterError(
                "entropy function needs a bounded mobility (constant or clamped), "
                f"got kind {mobility.kind!r}"
            )
        if mobility.kind == "clamped":
            half = 1.0 - mobility.eps
        else:
            half = 1.0
        panels = 2 * math.ceil(half * _ENTROPY_RESOLUTION)
        self.nodes = np.linspace(-half, half, panels + 1)
        w = 1.0 / mobility_value(mobility, self.nodes)
        if not np.all(w > 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("mobility must be strictly positive on the core interval")
        i0 = panels // 2  # node at s = 0
        gp = _cumulative_simpson(w, self.nodes)
        gp -= gp[i0]
        g = _cumulative_simpson(gp, self.nodes)
        g -= g[i0]
        self._w = w
        self._gp = gp
        self._g = g
        self._half = half
        self._m_edge = (mobility_value(mobility, -half), mobility_value(mobility, half))

    def _hermite(self, s, y, d):
        x = self.nodes
        idx = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
        hseg = x[idx + 1] - x[idx]
        t = (s - x[idx]) / hseg
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return (
            h00 * y[idx] + hseg * h10 * d[idx]
            + h01 * y[idx + 1] + hseg * h11 * d[idx + 1]
        )

    @_elementwise
    def value(self, s):
        """G(s) >= 0."""
        a = self._half
        core = self._hermite(np.clip(s, -a, a), self._g, self._gp)
        g_lo, g_hi = self._g[0], self._g[-1]
        gp_lo, gp_hi = self._gp[0], self._gp[-1]
        m_lo, m_hi = self._m_edge
        hi = g_hi + gp_hi * (s - a) + (s - a) ** 2 / (2.0 * m_hi)
        lo = g_lo + gp_lo * (s + a) + (s + a) ** 2 / (2.0 * m_lo)
        return np.where(s > a, hi, np.where(s < -a, lo, core))

    @_elementwise
    def derivative(self, s):
        """G'(s), odd-symmetric for symmetric mobilities."""
        a = self._half
        core = self._hermite(np.clip(s, -a, a), self._gp, self._w)
        m_lo, m_hi = self._m_edge
        hi = self._gp[-1] + (s - a) / m_hi
        lo = self._gp[0] + (s + a) / m_lo
        return np.where(s > a, hi, np.where(s < -a, lo, core))
