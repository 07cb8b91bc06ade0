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

`EntropyFunction` is G'' = 1/m from G(0) = G'(0) = 0 in closed form: s^2/(2m)
for a constant m; for m_eps the exact antiderivatives of (1-s^2)^-n on
|s| <= 1 - eps, Taylor-continued beyond like the regularized potential.
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


def _taylor_continued(core, param, sc, s, order):
    """Even ``core(param, s, k)`` (k-th derivative) on |s| <= sc, continued
    beyond +-sc by its quadratic Taylor polynomial at the joint."""
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


def _regularized_f1(spec, s, order):
    """F1_eps and derivatives: base inside |s| <= 1-eps, Taylor outside."""
    return _taylor_continued(_log_part, spec.theta, 1.0 - spec.eps, s, order)


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
    return MobilitySpec(kind="clamped", n=spec.n, eps=eps, m1=mobility_value(clamped, 1.0 - eps))


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

def _entropy_core(spec, s, order):
    """G, G' or G'' for m = (1-s^2)^n on |s| < 1: G' = I_n from I_1 = artanh s,
    I_k = s / (2(k-1)(1-s^2)^(k-1)) + (2k-3)/(2(k-1)) I_(k-1), and by parts
    G = s G' - int_0^s t/(1-t^2)^n dt = s G' + log(1-s^2)/2 (n = 1) or
    s G' - ((1-s^2)^(1-n) - 1)/(2(n-1)), through log1p/expm1 for small |s|."""
    if order == 2:
        return 1.0 / _degenerate_core(spec, s)
    n = spec.n
    q = 1.0 - s * s
    gp = np.arctanh(s)
    for k in range(2, n + 1):
        gp = s / (2 * (k - 1) * q ** (k - 1)) + (2 * k - 3) / (2 * (k - 1)) * gp
    if order == 1:
        return gp
    lq = np.log1p(-s * s)
    tail = -0.5 * lq if n == 1 else np.expm1((1 - n) * lq) / (2 * (n - 1))
    return s * gp - tail


class EntropyFunction:
    """G'' = 1/m from G(0) = G'(0) = 0 for a constant or clamped mobility:
    s^2/(2m), or `_entropy_core` Taylor-continued where m_eps is constant."""

    def __init__(self, mobility):
        if mobility.kind not in ("constant", "clamped"):
            raise ParameterError(
                "entropy function needs a bounded mobility (constant or clamped), "
                f"got kind {mobility.kind!r}"
            )
        edge = mobility_value(mobility, 1.0 - mobility.eps)  # least m on the core
        if not (0.0 < edge < math.inf and 1.0 / edge < math.inf):
            raise ParameterError("mobility must be strictly positive on the core interval")
        self._mobility = mobility

    def _eval(self, s, order):
        mob = self._mobility
        if mob.kind == "constant":
            return s * s / (2.0 * mob.value) if order == 0 else s / mob.value
        return _taylor_continued(_entropy_core, mob, 1.0 - mob.eps, s, order)

    @_elementwise
    def value(self, s):
        """G(s) >= 0, even."""
        return self._eval(s, 0)

    @_elementwise
    def derivative(self, s):
        """G'(s), odd."""
        return self._eval(s, 1)
