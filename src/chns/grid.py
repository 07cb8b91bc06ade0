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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError

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
    """Uniform grid over [0,1]^dim with ``n`` cells per axis.  Its spacings
    and shapes are computed once per instance and then read as attributes."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ParameterError(f"grid dimension must be 2 or 3, got {self.dim}")
        if self.n < 8:
            raise ParameterError(f"need at least 8 cells per axis, got {self.n}")

    @cached_property
    def h(self):
        return 1.0 / self.n

    @cached_property
    def cell_shape(self):
        return (self.n,) * self.dim

    @cached_property
    def cell_volume(self):
        return self.h**self.dim

    @cached_property
    def face_shapes(self):
        """`face_shape` of every axis."""
        return tuple(_grown(self.cell_shape, c) for c in range(self.dim))

    def face_shape(self, axis):
        return self.face_shapes[axis]

    def cell_centers(self, axis):
        """Coordinates of cell centers along one axis."""
        return (np.arange(self.n) + 0.5) * self.h

    def face_coords(self, axis):
        """Coordinates of the faces orthogonal to ``axis``."""
        return np.arange(self.n + 1) * self.h


@lru_cache(maxsize=None)
def _planes(ndim, axis):
    """The index tuples the stencils take along ``axis``, in one lookup:
    (``:-1``, ``1:``, ``1:-1``, plane 0, plane -1).  Farther planes are
    views of these: ``a[lo][lo]`` is ``:-2`` and ``a[hi][first]`` plane 1."""
    out = []
    for take in (slice(None, -1), slice(1, None), slice(1, -1), 0, -1):
        idx = [slice(None)] * ndim
        idx[axis] = take
        out.append(tuple(idx))
    return tuple(out)


@lru_cache(maxsize=None)
def _grown(shape, axis):
    """``shape`` with one more entry along ``axis``: cells to faces."""
    s = list(shape)
    s[axis] += 1
    return tuple(s)


def _norm(a):
    """``np.linalg.norm(a)`` of a real array as a float, without the
    wrapper's argument handling: the square root of the flattened array's
    dot product with itself, which is what ``norm`` computes.  Like it,
    the dot product raises numpy's overflow flag on an overflow."""
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


@dataclass
class ScalarField:
    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.cell_shape:
            raise ParameterError(
                f"scalar data shape {self.data.shape} != {self.grid.cell_shape}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.cell_shape))

    def mean(self):
        # the sum and division ``ndarray.mean`` performs, without its wrapper
        return float(self.data.sum() / self.data.size)


@dataclass
class VectorField:
    grid: Grid
    components: tuple

    def __post_init__(self):
        shapes = self.grid.face_shapes
        comps = []
        for c, a in enumerate(self.components):
            a = np.asarray(a, dtype=float)
            if a.shape != shapes[c]:
                raise ParameterError(f"component {c} shape {a.shape} != {shapes[c]}")
            comps.append(a)
        self.components = tuple(comps)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, tuple(np.zeros(shape) for shape in grid.face_shapes))

    def zero_normal_boundaries(self):
        """Pin boundary-normal faces to zero (no penetration)."""
        nd = self.grid.dim
        for c, a in enumerate(self.components):
            _, _, _, first, last = _planes(nd, c)
            a[first] = 0.0
            a[last] = 0.0
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
        lo, hi, mid, _, _ = _planes(nd, c)
        g = np.zeros(grid.face_shapes[c])
        inner = g[mid]
        np.subtract(p[hi], p[lo], out=inner)
        inner /= h
        out.append(g)
    return out


def _div_arrays(grid, comps):
    # the subtractions ``np.diff(comps[c], axis=c)`` performs, summed
    nd = grid.dim
    lo, hi, _, _, _ = _planes(nd, 0)
    acc = comps[0][hi] - comps[0][lo]
    for c in range(1, nd):
        lo, hi, _, _, _ = _planes(nd, c)
        acc += comps[c][hi] - comps[c][lo]
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
    lo, hi, mid, first, last = _planes(p.ndim, axis)
    out = np.empty(_grown(p.shape, axis))
    if axis == p.ndim - 1:
        # a strided interior along the contiguous axis: one copy of `_mid`
        # costs less than averaging into it
        out[mid] = _mid(p, axis)
    else:
        # `_mid`, written straight into the interior faces, with no temporary
        inner = out[mid]
        np.add(p[lo], p[hi], out=inner)
        inner *= 0.5
    out[first] = p[first]
    out[last] = p[last]
    return out


def _mid(a, axis):
    """Average of neighbouring planes of ``a`` along ``axis``."""
    lo, hi, _, _, _ = _planes(a.ndim, axis)
    s = a[lo] + a[hi]
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
        mag2 += cell_to_face(cc[e], c) ** 2
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
        out = np.zeros(vc.shape)
        for e in range(nd):
            lo, hi, mid, _, _ = _planes(nd, e)
            w = coefs[e] if e == c else coefs[e][mid]
            t = w * vc[hi]
            out[lo] += t
            np.multiply(w, vc[lo], out=t)
            out[hi] -= t
        out /= 2.0 * grid.h
        _, _, _, first, last = _planes(nd, c)
        out[first] = 0.0
        out[last] = 0.0
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
    lo, hi, mid, _, _ = _planes(a.ndim, axis)
    np.multiply(2.0, a[mid], out=out)
    np.subtract(a[lo][lo], out, out=out)
    out += a[hi][hi]
    out /= h2
    return out


def _lap_component_arr(grid, a, c):
    """Laplacian of one velocity component: pinned walls through-axis,
    reflected (no-slip) ghosts across.  Boundary-normal rows come out zero."""
    nd = grid.dim
    h2 = grid.h**2
    out = np.zeros(a.shape)
    _, _, inner, wall_lo, wall_hi = _planes(nd, c)
    _second_difference(a, c, h2, out[inner])
    for e in range(nd):
        if e == c:
            continue
        lo, hi, mid, first, last = _planes(nd, e)
        out[mid] += _second_difference(a, e, h2, np.empty_like(a[mid]))
        out[first] += (a[hi][first] - 3.0 * a[first]) / h2
        out[last] += (a[lo][last] - 3.0 * a[last]) / h2
    out[wall_lo] = 0.0
    out[wall_hi] = 0.0
    return out


def dirichlet_energy(v, lap):
    """||grad v||^2 in the form <-Lap v, v>, consistent with the viscous
    operator (includes the wall ghost contributions), from the component
    Laplacians ``lap`` of ``v`` (`_lap_component_arr`)."""
    return -vector_inner(VectorField(v.grid, tuple(lap)), v)
