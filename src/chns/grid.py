"""Uniform MAC staggered grid on the unit box and its discrete operators.

Scalars (order parameter, chemical potential, pressure) live at cell
centers; velocity component ``c`` lives on the faces orthogonal to axis
``c``, so component ``c`` has extent ``n + 1`` along axis ``c`` and ``n``
along every other axis.  Boundary-normal faces are the physical walls and
are pinned to zero for every velocity field (no penetration); tangential
wall values are represented by reflecting ghosts (no slip).

The layout buys three exact discrete identities that the rest of the
package leans on:

* ``divergence_fc`` is minus the adjoint of ``gradient_cc`` for any
  velocity with zero boundary-normal faces (summation by parts),
* ``divergence_fc(gradient_cc(phi))`` equals the mirror-closure Neumann
  Laplacian, stencil for stencil,
* the skew-symmetrized convection is one centered antisymmetric
  stencil, so its form vanishes when both trailing arguments coincide,
  for any advecting field: at roundoff in ``convection``, and exactly in
  ``trilinear_b``, the skew form of ``convection``, by construction.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "gradient_cc",
    "divergence_fc",
    "laplacian_neumann",
    "advect_scalar",
    "trilinear_b",
    "convection",
    "velocity_laplacian",
    "cell_to_face",
    "center_components",
    "face_speed",
    "scalar_inner",
    "vector_inner",
    "vector_norm",
    "dirichlet_energy",
]


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [0,1]^dim with ``n`` cells per axis."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise ValueError(f"need at least 8 cells per axis, got {self.n}")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def cell_shape(self):
        return (self.n,) * self.dim

    @property
    def cell_volume(self):
        return self.h**self.dim

    def face_shape(self, axis):
        s = [self.n] * self.dim
        s[axis] += 1
        return tuple(s)

    def cell_centers(self, axis):
        """Coordinates of cell centers along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def face_coords(self, axis):
        """Coordinates of the faces orthogonal to ``axis``."""
        return np.arange(self.n + 1) * self.h


@lru_cache(maxsize=None)
def _sl(ndim, axis, start=None, stop=None):
    """Index tuple taking ``start:stop`` along ``axis``.  Memoized on the
    bounds, since slice objects are unhashable before Python 3.12."""
    idx = [slice(None)] * ndim
    idx[axis] = slice(start, stop)
    return tuple(idx)


@lru_cache(maxsize=None)
def _at(ndim, axis, i):
    """Index tuple taking the single plane ``i`` along ``axis``."""
    idx = [slice(None)] * ndim
    idx[axis] = i
    return tuple(idx)


def _diff(a, axis):
    """The subtraction ``np.diff(a, axis=axis)`` performs, without its
    argument handling."""
    return a[_sl(a.ndim, axis, 1)] - a[_sl(a.ndim, axis, None, -1)]


@dataclass
class ScalarField:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.cell_shape:
            raise ValueError(
                f"scalar data shape {self.data.shape} != {self.grid.cell_shape}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.cell_shape))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.cell_shape, float(value)))

    def mean(self):
        return float(self.data.mean())


@dataclass
class VectorField:
    grid: Grid
    components: tuple

    def __post_init__(self):
        comps = []
        for c, a in enumerate(self.components):
            a = np.asarray(a, dtype=float)
            if a.shape != self.grid.face_shape(c):
                raise ValueError(
                    f"component {c} shape {a.shape} != {self.grid.face_shape(c)}"
                )
            comps.append(a)
        self.components = tuple(comps)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, tuple(np.zeros(grid.face_shape(c)) for c in range(grid.dim)))

    def zero_normal_boundaries(self):
        """Pin boundary-normal faces to zero (no penetration)."""
        nd = self.grid.dim
        for c, a in enumerate(self.components):
            a[_at(nd, c, 0)] = 0.0
            a[_at(nd, c, -1)] = 0.0
        return self

    def max_abs(self):
        return max(float(np.abs(a).max()) for a in self.components)


# ---------------------------------------------------------------------------
# inner products and norms (midpoint quadrature, weight h^d)

def scalar_inner(f, g):
    return float(np.vdot(f.data, g.data)) * f.grid.cell_volume


def vector_inner(v, w):
    acc = 0.0
    for a, b in zip(v.components, w.components):
        acc += float(np.vdot(a, b))
    return acc * v.grid.cell_volume


def vector_norm(v):
    return vector_inner(v, v) ** 0.5


# ---------------------------------------------------------------------------
# first-order operators

def _grad_arrays(grid, p):
    h = grid.h
    nd = grid.dim
    out = []
    for c in range(nd):
        g = np.zeros(grid.face_shape(c))
        inner = g[_sl(nd, c, 1, -1)]
        np.subtract(p[_sl(nd, c, 1)], p[_sl(nd, c, None, -1)], out=inner)
        inner /= h
        out.append(g)
    return out


def _div_arrays(grid, comps):
    acc = _diff(comps[0], 0)
    for c in range(1, grid.dim):
        acc += _diff(comps[c], c)
    acc /= grid.h
    return acc


def gradient_cc(phi):
    """Face-centered gradient of a cell field; zero on boundary faces."""
    return VectorField(phi.grid, tuple(_grad_arrays(phi.grid, phi.data)))


def divergence_fc(v):
    """Cell-centered divergence of a face field."""
    return ScalarField(v.grid, _div_arrays(v.grid, v.components))


def laplacian_neumann(phi):
    """5/7-point Laplacian with mirror (homogeneous Neumann) closure.

    Built as div(grad(.)) so the factorization is exact by construction.
    """
    return ScalarField(phi.grid, _lap_arr(phi.grid, phi.data))


def _lap_arr(grid, p):
    return _div_arrays(grid, _grad_arrays(grid, p))


def cell_to_face(phi, axis):
    """Arithmetic average of a cell field onto the faces of one axis.

    Boundary faces take the adjacent cell value (mirror ghost).
    """
    p = phi.data if isinstance(phi, ScalarField) else phi
    nd = p.ndim
    shape = list(p.shape)
    shape[axis] += 1
    out = np.empty(shape)
    out[_sl(nd, axis, 1, -1)] = _mid(p, axis)
    out[_at(nd, axis, 0)] = p[_at(nd, axis, 0)]
    out[_at(nd, axis, -1)] = p[_at(nd, axis, -1)]
    return out


def _mid(a, axis):
    """Average of neighbouring planes of ``a`` along ``axis``."""
    s = a[_sl(a.ndim, axis, None, -1)] + a[_sl(a.ndim, axis, 1)]
    s *= 0.5
    return s


def advect_scalar(u, phi):
    """Conservative transport term div(u * phi) with face-averaged phi.

    Wall fluxes vanish because boundary-normal velocities are pinned, so the
    discrete integral of the output telescopes to zero.
    """
    grid = phi.grid
    fluxes = [u.components[c] * cell_to_face(phi, c) for c in range(grid.dim)]
    return ScalarField(grid, _div_arrays(grid, fluxes))


# ---------------------------------------------------------------------------
# velocity interpolation helpers

def center_components(v):
    """Velocity components averaged to cell centers; list of cell arrays."""
    return [_mid(a, c) for c, a in enumerate(v.components)]


def face_speed(v, c, cc):
    """|v| evaluated on the faces of component ``c``.

    The through component is read directly; the others are taken from the
    cell-center components ``cc`` (`center_components(v)`) onto the c-faces.
    """
    mag2 = v.components[c] ** 2
    for e in range(v.grid.dim):
        if e == c:
            continue
        other = cell_to_face(cc[e], c)
        mag2 = mag2 + other**2
    return np.sqrt(mag2)


def _edge_coefficients(v, c, centers=None):
    """Advecting-velocity averages on the mid-edges of component c.

    For axis e == c the midpoints are cell centers (``centers[c]`` when
    ``centers`` carries `center_components(v)`); for e != c they are the
    e-face positions shifted onto the c-face line.  Wall midpoints carry the
    (zero) wall-normal velocity so no ghost values ever enter the advection
    stencils.
    """
    along = _mid(v.components[c], c) if centers is None else centers[c]
    return [along if e == c else cell_to_face(a, c) for e, a in enumerate(v.components)]


def convection(a, v, centers=None):
    """Skew-symmetrized convection N(a)v = ((a.grad)v + div(a x v)) / 2.

    Along axis e, with v+- the neighbours of a c-face and C+- the
    `_edge_coefficients` between them, the advective part is
    [C+ (v+ - v) + C- (v - v-)] / 2h and the divergence part
    [C+ (v + v+) - C- (v- + v)] / 2h.  Half their sum drops the centre
    value: N(a)v = sum_e (C+ v+ - C- v-) / 2h, for any ``a`` and ``v``.
    For e != c only interior e-edges enter (a wall edge has C = 0); the
    c-wall faces are pinned to zero.  ``centers`` may carry
    `center_components(a)`.

    Each edge couples its neighbours with opposite signs, so for v, w with
    pinned wall faces <N(a)v, w> = -<N(a)w, v>, and <N(a)v, v>
    vanishes for every ``a``, solenoidal or not: exactly in exact
    arithmetic, at roundoff in floating point.  ``trilinear_b`` is its
    skew form, exactly zero on the diagonal by construction.
    """
    grid = a.grid
    nd = grid.dim
    comps = []
    for c in range(nd):
        coefs = _edge_coefficients(a, c, centers)
        vc = v.components[c]
        out = np.zeros_like(vc)
        for e in range(nd):
            w = coefs[e] if e == c else coefs[e][_sl(nd, e, 1, -1)]
            lo, hi = _sl(nd, e, None, -1), _sl(nd, e, 1)
            t = w * vc[hi]
            out[lo] += t
            np.multiply(w, vc[lo], out=t)
            out[hi] -= t
        out /= 2.0 * grid.h
        out[_at(nd, c, 0)] = 0.0
        out[_at(nd, c, -1)] = 0.0
        comps.append(out)
    return VectorField(grid, tuple(comps))


def trilinear_b(u, v, w):
    """Skew form b(u, v, w) = (<N(u)v, w> - <N(u)w, v>)/2 of `convection`.

    Both products run through the one stencil, so b(u, v, v) = 0 and
    b(u, v, w) = -b(u, w, v) hold exactly in floating point.  For pinned
    v, w it equals <N(u)v, w> and the advective form
    (<(u.grad)v, w> - <(u.grad)w, v>)/2 in exact arithmetic.
    """
    return 0.5 * (vector_inner(convection(u, v), w) - vector_inner(convection(u, w), v))


# ---------------------------------------------------------------------------
# velocity Laplacian with no-slip closure

def _second_difference(a, axis, h2, out):
    """(a[i-1] - 2 a[i] + a[i+1]) / h2 on the planes between the ends of
    ``axis``, written into ``out``."""
    nd = a.ndim
    np.multiply(2.0, a[_sl(nd, axis, 1, -1)], out=out)
    np.subtract(a[_sl(nd, axis, None, -2)], out, out=out)
    out += a[_sl(nd, axis, 2)]
    out /= h2
    return out


def _lap_component_arr(grid, a, c):
    """Laplacian of one velocity component: pinned walls through-axis,
    reflected (no-slip) ghosts across.  Boundary-normal rows come out zero."""
    nd = grid.dim
    h2 = grid.h**2
    out = np.zeros_like(a)
    _second_difference(a, c, h2, out[_sl(nd, c, 1, -1)])
    for e in range(nd):
        if e == c:
            continue
        mid = _sl(nd, e, 1, -1)
        out[mid] += _second_difference(a, e, h2, np.empty_like(a[mid]))
        lo, hi = _at(nd, e, 0), _at(nd, e, -1)
        out[lo] += (a[_at(nd, e, 1)] - 3.0 * a[lo]) / h2
        out[hi] += (a[_at(nd, e, -2)] - 3.0 * a[hi]) / h2
    out[_at(nd, c, 0)] = 0.0
    out[_at(nd, c, -1)] = 0.0
    return out


def velocity_laplacian(v):
    """Componentwise Laplacian with the no-slip boundary closure."""
    grid = v.grid
    return VectorField(
        grid,
        tuple(_lap_component_arr(grid, a, c) for c, a in enumerate(v.components)),
    )


def dirichlet_energy(v, lap=None):
    """||grad v||^2 in the form <-Lap v, v>, consistent with the viscous
    operator (includes the wall ghost contributions).  ``lap`` may carry
    the component Laplacians of ``v`` already built."""
    lap = velocity_laplacian(v) if lap is None else VectorField(v.grid, tuple(lap))
    return -vector_inner(lap, v)
