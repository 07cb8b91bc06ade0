"""Semi-implicit, energy-stable time stepping for the coupled system.

One step (`step_coupled`, which `Simulation.step` calls on a run) advances
(u, phi) by two phases, one function each:

1. `step_ch`: transport phi explicitly with the solenoidal velocity u^n,
   then take a backward-Euler diffusion step with mobility frozen at phi^n
   and the chemical potential split convex/concave:
   mu^{n+1/2} = -Lap phi^{n+1} + F'(phi^{n+1}) + c0 (phi^{n+1} - phi^n),
   solved by a damped fixed-point iteration preconditioned with the exact
   spectral inverse of the constant-coefficient operator, with a
   Newton-GMRES fallback for strongly varying mobility (`gmres`, a port of
   scipy's that gives its iterates bit for bit, so no run loads scipy);

2. `step_ns`: assemble the capillary force mu^{n+1/2} grad phi^n plus
   external forcing, Helmholtz-project it, and take an implicit step in
   viscosity and the linearized damping beta |u^n|^{r-1} u^{n+1} with explicit
   skew-symmetrized convection; project the result.  Each velocity
   component is solved by conjugate gradients preconditioned with the
   exact sine-transform inverse of (1 + dt beta dbar) - dt nu Lap, dbar the
   mid-range drag, so a constant drag (r = 1, beta = 0 or u = 0) takes one
   iteration.  The operator minus the preconditioner's inverse is
   diagonal, so a CG iteration applies one exact inverse and no Laplacian;
   one call of `_cg_component` is the whole solve of a component.

Projecting the force before the viscous solve matters: the viscous
resolvent does not commute with the projection, so the gradient component
of mu grad(phi) (the part a pressure would absorb) would otherwise leak
spurious kinetic energy and spatially uniform states would not be exact
equilibria.  With it, mass is conserved to roundoff and, when the external
force vanishes, the total energy does not increase for smooth or
capillary-driven flow.  The explicit convection can raise it: rough
solenoidal u with dt max|u|^2 / nu in the hundreds gains up to 3.4e-3 of
E, relative, in one step inside the CFL guard.

No stencil is built twice: the new `State` carries what a step built from
(u^{n+1}, phi^{n+1}).  The accepted CH iterate's grad phi, Lap phi and
-Lap phi + F_c'(phi) feed the next capillary force and first CH residual,
which adds only -c0 phi^n; the record's Lap_c u and cell-centre velocities
feed the first PCG residual, the convection and the face drag; the
mobility faces and their mid-range feed the CH operator and its
preconditioner, and the accepted iterate's flux m grad mu its record.  The
convex part and the faces are tagged with the (pot, mob) they were built
for and rebuilt for any other.  A state without the caches rebuilds them,
bit for bit.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagnostics import DiagnosticsRecord, TrajectoryLedger
from .diagnostics import degenerate_identity_extras  # noqa: F401  (bench/layers.py rebinds it)
from .errors import ParameterError, StepError
from .grid import (
    ScalarField,
    VectorField,
    _div_arrays,
    _grad_arrays,
    _lap_arr,
    _lap_component_arr,
    _norm,
    advect_scalar,
    cell_to_face,
    center_components,
    convection,
    dirichlet_energy,
    divergence_fc,
    face_speed,
    vector_inner,
)
from .materials import (
    mobility_value,
    potential_concave_deriv,
    potential_convex_deriv,
    potential_deriv,
    potential_value,
)
from .poisson import (
    _apply_bases,
    _dct2_bases,
    _face_inverse,
    _face_symbol,
    _neumann_symbol,
    helmholtz_project_with_potential,
)

__all__ = [
    "SolverParams",
    "ForcingSpec",
    "State",
    "vortex_field",
    "initial_state",
    "step_ch",
    "step_ns",
    "step_coupled",
    "damping_pairing",
    "Simulation",
]

CRITICAL_EXPONENT = 3.0
CFL_SAFETY = 4.0  # the advective guard: dt <= h / (CFL_SAFETY max|u|)
CH_TOL = 1e-10  # CH inner residual bound, relative to max(1, ||phi^n||)
MAX_INNER_ITERS = 50  # CH inner iterations allowed per step
VISCOUS_RTOL = 1e-12  # viscous CG residual bound, relative to ||b||
MAX_VISCOUS_ITERS = 400  # viscous CG iterations allowed per component
FORCING_KINDS = ("zero", "steady", "time_profile")
VELOCITY_KINDS = ("zero", "vortex")  # the initial velocities `initial_state` builds


# `gmres` below is a port of ``scipy.sparse.linalg.gmres`` (scipy 1.17.1,
# sparse/linalg/_isolve/iterative.py), cut down to a real system, x0 = 0,
# atol = 0 and no callback.  It does scipy's operations in scipy's order, so
# its iterates equal scipy's bit for bit (`tests/test_solver.py` compares the
# two); scipy's notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_SAFMIN = 2.0**-1022  # LAPACK's safe minimum for float64; its safe maximum is 1 / it
_RTMIN = math.sqrt(_SAFMIN)
_RTMAX = math.sqrt(0.5 / _SAFMIN)


def _lartg(f, g):
    """(c, s, r) with [c s; -s c] [f; g] = [r; 0]: LAPACK >= 3.10's dlartg,
    the plane rotation of Anderson, ACM TOMS 44 (2017), Algorithm 978."""
    f1, g1 = abs(f), abs(g)
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), g1
    if _RTMIN < f1 < _RTMAX and _RTMIN < g1 < _RTMAX:
        d = math.sqrt(f * f + g * g)
        r = math.copysign(d, f)
        return f1 / d, g / r, r
    u = min(1.0 / _SAFMIN, max(_SAFMIN, f1, g1))
    fs, gs = f / u, g / u
    d = math.sqrt(fs * fs + gs * gs)
    r = math.copysign(d, f)
    return abs(fs) / d, gs / r, r * u


def gmres(A, b, *, M, rtol, restart, maxiter):
    """Restarted GMRES (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986)
    856-869) for A x = b from x = 0, left-preconditioned by M; ``A`` and
    ``M`` are callables on flat arrays and b is nonzero.  Returns (x, info):
    info is 0 once ||b - A x|| <= rtol ||b||, else ``maxiter``, the restart
    cycles run."""
    bnrm2 = np.linalg.norm(b)
    atol = float(rtol) * float(bnrm2)
    eps = np.finfo(float).eps
    n = len(b)
    restart = min(restart, n)
    # the inner loop stops at a preconditioned residual ptol, adapted after
    # each cycle to how the true residual followed it
    ptol_max_factor = 1.0
    ptol = np.linalg.norm(M(b)) * min(ptol_max_factor, atol / bnrm2)
    v = np.empty([restart + 1, n])
    h = np.zeros([restart, restart + 1])
    givens = np.zeros([restart, 2])
    x = np.zeros(n)
    r = b.copy()
    for _ in range(maxiter):
        v[0, :] = M(r)
        tmp = np.linalg.norm(v[0, :])
        v[0, :] *= 1 / tmp
        S = np.zeros(restart + 1)  # the Hessenberg problem's right-hand side
        S[0] = tmp
        breakdown = False
        for col in range(restart):
            w = M(A(v[col, :]))
            # modified Gram-Schmidt
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                tmp = np.dot(v[k, :], w)
                h[col, k] = tmp
                w -= tmp * v[k, :]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1, :] = w[:]
            if h1 <= eps * h0:  # the Krylov space holds the exact solution
                h[col, col + 1] = 0
                breakdown = True
            else:
                v[col + 1, :] *= 1 / h1
            for k in range(col):
                c, s = givens[k, 0], givens[k, 1]
                n0, n1 = h[col, [k, k + 1]]
                h[col, [k, k + 1]] = [c * n0 + s * n1, -s * n0 + c * n1]
            c, s, mag = _lartg(h[col, col], h[col, col + 1])
            givens[col, :] = [c, s]
            h[col, [col, col + 1]] = mag, 0
            tmp = -s * S[col]
            S[[col, col + 1]] = [c * S[col], tmp]
            presid = np.abs(tmp)
            if presid <= ptol or breakdown:
                break
        # back-substitution, skipping zero entries so that a singular h
        # gives a pseudo-solution
        if h[col, col] == 0:
            S[col] = 0
        y = S[:col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0:
            y[0] /= h[0, 0]
        x += y @ v[:col + 1, :]
        r = b - A(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_max_factor = max(eps, 0.25 * ptol_max_factor)
        else:
            ptol_max_factor = min(1.0, 1.5 * ptol_max_factor)
        ptol = presid * min(ptol_max_factor, atol / rnorm)
    return x, 0 if rnorm <= atol else maxiter


def _require_finite(spec, names):
    # `x <= 0` is False for nan, so the range checks alone let nan through
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ParameterError(f"{type(spec).__name__}.{name} must be finite, got {value}")


@dataclass(frozen=True)
class ForcingSpec:
    """External body force for the momentum equation.

    kinds: ``zero``; ``steady`` (fixed vortex pattern scaled by amplitude);
    ``time_profile`` (same pattern modulated by sin(omega t)).
    """

    kind: str = "zero"
    amplitude: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.kind not in FORCING_KINDS:
            raise ParameterError(
                f"unknown forcing kind {self.kind!r}, expected one of {FORCING_KINDS}"
            )
        _require_finite(self, ("amplitude", "omega"))

    def sample(self, grid, t):
        """Force field at time t, or None when identically zero."""
        if self.kind == "zero" or self.amplitude == 0.0:
            return None
        base = _forcing_pattern(grid, self.amplitude)
        if self.kind == "steady":
            return base
        factor = math.sin(self.omega * t)
        return VectorField(grid, tuple(factor * a for a in base.components))


@dataclass(frozen=True)
class SolverParams:
    nu: float = 1.0
    beta: float = 1.0
    r: float = 3.0
    dt: float = 1e-4
    t_final: float = 0.1
    forcing: ForcingSpec = field(default_factory=ForcingSpec)

    def __post_init__(self):
        _require_finite(self, ("nu", "beta", "r", "dt", "t_final"))
        if self.nu <= 0.0:
            raise ParameterError(f"viscosity must be positive, got {self.nu}")
        if self.beta < 0.0:
            raise ParameterError(f"damping coefficient must be >= 0, got {self.beta}")
        if self.r < 1.0:
            raise ParameterError(f"absorption exponent must be >= 1, got {self.r}")
        if self.dt <= 0.0 or self.t_final <= 0.0:
            raise ParameterError("dt and t_final must be positive")

    @property
    def critical(self):
        """True at the critical absorption exponent r = 3."""
        return self.r == CRITICAL_EXPONENT

    @property
    def n_steps(self):
        """Steps of a run to t_final: t_final / dt to the nearest integer."""
        return int(round(self.t_final / self.dt))


@dataclass
class State:
    """The unknowns (u, phi) and the pressure pi at time t, and keyword-only
    caches a step fills and the accessors build when absent (see the module
    docstring); ``materials`` is the (pot, mob) of ``mu_convex``, ``m_faces``
    and their mid-range ``m_mid``.  The chemical potential -Lap phi + F'(phi) is
    `cells_mu_convex` plus the concave part F_e'(phi)."""

    t: float
    u: VectorField
    phi: ScalarField
    pi: ScalarField
    grad_phi: list = field(default=None, repr=False, compare=False, kw_only=True)
    lap_u: list = field(default=None, repr=False, compare=False, kw_only=True)
    lap_phi: np.ndarray = field(default=None, repr=False, compare=False, kw_only=True)
    centers: list = field(default=None, repr=False, compare=False, kw_only=True)
    mu_convex: np.ndarray = field(default=None, repr=False, compare=False, kw_only=True)
    m_faces: list = field(default=None, repr=False, compare=False, kw_only=True)
    m_mid: float = field(default=None, repr=False, compare=False, kw_only=True)
    materials: tuple = field(default=None, repr=False, compare=False, kw_only=True)

    def faces_grad_phi(self):
        if self.grad_phi is None:
            self.grad_phi = _grad_arrays(self.phi.grid, self.phi.data)
        return self.grad_phi

    def faces_lap_u(self):
        if self.lap_u is None:
            grid = self.u.grid
            self.lap_u = [_lap_component_arr(grid, a, c) for c, a in enumerate(self.u.components)]
        return self.lap_u

    def cells_lap_phi(self):
        if self.lap_phi is None:
            self.lap_phi = _div_arrays(self.phi.grid, self.faces_grad_phi())
        return self.lap_phi

    def cells_u(self):
        if self.centers is None:
            self.centers = center_components(self.u)
        return self.centers

    def _for_materials(self, pot, mob):
        if self.materials != (pot, mob):
            self.mu_convex = self.m_faces = self.m_mid = None
            self.materials = (pot, mob)

    def cells_mu_convex(self, pot, mob):
        self._for_materials(pot, mob)
        if self.mu_convex is None:
            cvx = potential_convex_deriv(pot, self.phi.data)
            self.mu_convex = -self.cells_lap_phi() + cvx
        return self.mu_convex

    def faces_mobility(self, pot, mob):
        self._for_materials(pot, mob)
        if self.m_faces is None:
            self.m_faces = _m_faces(self.phi.grid, mob, self.phi.data)
        return self.m_faces

    def mobility_mid(self, pot, mob):
        """Mid-range (min + max) / 2 of `faces_mobility`."""
        faces = self.faces_mobility(pot, mob)
        if self.m_mid is None:
            mmin = min(float(f.min()) for f in faces)
            mmax = max(float(f.max()) for f in faces)
            self.m_mid = 0.5 * (mmin + mmax)
        return self.m_mid

    def check_finite(self):
        """Raise StepError naming the first field with a nan or inf entry."""
        fields = (("u", self.u.components), ("phi", [self.phi.data]), ("pi", [self.pi.data]))
        for name, arrays in fields:
            for a in arrays:
                if not np.isfinite(a).all():
                    raise StepError(f"field {name} is not finite at t={self.t}")
        return self


def vortex_field(grid, amplitude):
    """Single counter-rotating vortex pair from the stream function
    sin(pi x) sin(pi y); wall-normal components vanish identically."""
    a = float(amplitude)
    xf = grid.face_coords(0)
    xc = grid.cell_centers(0)
    comps = [
        a * np.sin(np.pi * xf)[:, None] * np.cos(np.pi * xc)[None, :],
        -a * np.cos(np.pi * xc)[:, None] * np.sin(np.pi * xf)[None, :],
    ]
    if grid.dim == 3:
        # extruded along z, with u_z = 0
        comps = [np.repeat(c[:, :, None], grid.n, axis=2) for c in comps]
        comps.append(np.zeros(grid.face_shape(2)))
    return VectorField(grid, tuple(comps)).zero_normal_boundaries()


@lru_cache(maxsize=8)
def _forcing_pattern(grid, amplitude):
    """`vortex_field(grid, amplitude)`, built once and shared read-only by
    every `ForcingSpec.sample` on that grid."""
    pattern = vortex_field(grid, amplitude)
    for a in pattern.components:
        a.flags.writeable = False
    return pattern


# `_uniform` below draws what ``numpy.random.default_rng(seed).uniform(low,
# high, shape)`` draws in numpy 2.4.6, bit for bit, without loading
# numpy.random (its bit generators pull in OpenSSL through `secrets`).  It
# ports numpy's SeedSequence (numpy/random/bit_generator.pyx, after Melissa
# O'Neill's seed_seq_fe), its PCG64 bit generator (O'Neill's PCG XSL-RR
# 128/64, numpy/random/src/pcg64) and its uniform double
# (numpy/random/src/distributions); `tests/test_solver.py` compares the two.
# Pinning the stream here also keeps the ledgers independent of numpy's
# stream policy (NEP 19).  numpy's notice:
#
# Copyright (c) 2005-2025, NumPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions are
# met:
#
#     * Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     * Neither the name of the NumPy Developers nor the names of any
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _seed_sequence_state(seed):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as four ints: the
    seed's 32-bit words hashed into a 4-word pool, which is hashed out again."""
    n = operator.index(seed)
    if n < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {n}")
    words = [n >> k & _M32 for k in range(0, max(n.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        v = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    h = 0x8B51F9DD
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _limbs(values):
    """(len(values), 4) uint64 array of the 32-bit limbs of 128-bit ints,
    least significant first."""
    raw = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(raw, dtype="<u4").reshape(-1, 4).astype(np.uint64)


def _uniform(seed, low, high, shape):
    """``numpy.random.default_rng(seed).uniform(low, high, shape)``, bit for
    bit: PCG64 seeded from `_seed_sequence_state`, one XSL-RR output per
    value in C order, mapped to low + (high - low) (x >> 11) 2^-53."""
    size = math.prod(shape)
    s0, s1, i0, i1 = _seed_sequence_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    # PCG's seeding: one step from 0 gives inc; add the seed, step again
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    # value k comes from the state k + 1 steps on.  The first b states are
    # stepped as ints; state i + j b is A_j state_i + C_j (mod 2^128), where
    # (A_j, C_j) is the affine map of j b steps, evaluated on 32-bit limbs:
    # a limb product fits in 64 bits and a column sums at most eight halves
    b = math.isqrt(size - 1) + 1
    states, ab, cb = [], 1, 0
    for _ in range(b):
        state = (state * _PCG_MULT + inc) & _M128
        states.append(state)
        ab, cb = ab * _PCG_MULT & _M128, (cb * _PCG_MULT + inc) & _M128
    jumps = [(1, 0)]
    for _ in range(-(-size // b) - 1):
        a, c = jumps[-1]
        jumps.append((a * ab & _M128, (c * ab + cb) & _M128))
    s = _limbs(states)
    a = _limbs([a for a, _ in jumps])
    col = list(_limbs([c for _, c in jumps]).T[:, :, None])
    for i in range(4):
        for j in range(4 - i):
            p = a[:, i, None] * s[:, j]
            col[i + j] = col[i + j] + (p & _M32)
            if i + j < 3:
                col[i + j + 1] = col[i + j + 1] + (p >> 32)
    for k in range(3):
        col[k + 1] += col[k] >> 32
    l0, l1, l2, l3 = (c.reshape(-1)[:size] & _M32 for c in col)
    x = (l3 << 32 | l2) ^ (l1 << 32 | l0)
    rot = l3 >> 26
    x = x >> rot | x << (64 - rot & 63)
    return (low + (high - low) * ((x >> 11).astype(np.float64) * 2.0**-53)).reshape(shape)


def initial_state(grid, phi_mean=0.0, noise_amp=0.05, seed=1234,
                  velocity="zero", velocity_amp=0.1, phi=None, u=None):
    """Spinodal initial data: phi_mean plus seeded uniform noise, and zero
    or a projected vortex velocity.  A given cell array ``phi`` or
    `VectorField` ``u`` replaces that field; pi is zero."""
    if phi is None:
        phi = phi_mean + noise_amp * _uniform(seed, -1.0, 1.0, grid.cell_shape)
    phi = ScalarField(grid, phi)
    if u is not None:
        u = VectorField(grid, u.components)
    elif velocity == "vortex":
        u, _, _ = helmholtz_project_with_potential(vortex_field(grid, velocity_amp))
    elif velocity == "zero":
        u = VectorField.zeros(grid)
    else:
        raise ParameterError(f"unknown initial velocity kind {velocity!r}")
    return State(t=0.0, u=u, phi=phi, pi=ScalarField.zeros(grid))


# ---------------------------------------------------------------------------
# Cahn-Hilliard step

def _m_faces(grid, mob, phi_arr):
    """m(phi) on the faces of each axis, read-only: a state shares them with
    the next step, and a constant mobility with every later step."""
    m_cell = ScalarField(grid, mobility_value(mob, phi_arr))
    faces = [cell_to_face(m_cell, c) for c in range(grid.dim)]
    for f in faces:
        f.flags.writeable = False
    return faces


def dctn(y):
    """Orthonormal DCT-II of ``y`` on every axis; `bench/layers.py` counts
    its calls, one per `_ch_preconditioner` apply, as ch_precond_applies."""
    return _apply_bases(y, _dct2_bases(y.shape[0], y.ndim)[0])


@lru_cache(maxsize=None)
def _neumann_symbol_squared(grid):
    """lam^2 of `_neumann_symbol`, the constant part of the CH symbol."""
    lam = _neumann_symbol(grid)
    return lam * lam


def _ch_preconditioner(grid, dt, mbar, sigma):
    lam = _neumann_symbol(grid)
    sym = 1.0 + dt * mbar * (_neumann_symbol_squared(grid) + sigma * lam)
    inverse = _dct2_bases(grid.n, grid.dim)[1]

    def apply(y):
        yhat = dctn(y)
        yhat /= sym
        return _apply_bases(yhat, inverse)

    return apply


def step_ch(state, params, pot, mob):
    """One transport + mobility-diffusion step; returns (phi_new, mu_half,
    (grad phi_new, Lap phi_new, -Lap phi_new + F_c'(phi_new), the sum over
    the axes of <m grad mu_half, grad mu_half>)), all of the accepted iterate.

    The backward-Euler step is solved by a damped preconditioned fixed point
    with a Newton-GMRES fallback, taken once five iterations fail to halve
    the residual or contract too slowly to reach tol in the iterations left,
    or a line search fails.  The first residual reads phi^n's stencils
    from ``state``; each line-search trial builds its own.  Mass is
    preserved exactly: every update is projected onto mean zero.
    """
    grid, dt = state.phi.grid, params.dt
    phi_n = state.phi.data
    m_face = state.faces_mobility(pot, mob)
    mbar = state.mobility_mid(pot, mob)
    target = phi_n - dt * advect_scalar(state.u, state.phi).data
    ge = potential_concave_deriv(pot, phi_n)
    sqrt_vol = grid.cell_volume**0.5

    def residual(phi, gphi, lap, mu_cvx):
        mu = mu_cvx + ge
        gmu = _grad_arrays(grid, mu)
        flux = [m * g for m, g in zip(m_face, gmu)]  # m grad mu, zero on the walls
        res = phi - target - dt * _div_arrays(grid, flux)
        return res, _norm(res) * sqrt_vol, (mu, gphi, lap, mu_cvx, gmu, flux)

    phi = phi_n.copy()
    res, rn, ev = residual(
        phi, state.faces_grad_phi(), state.cells_lap_phi(), state.cells_mu_convex(pot, mob)
    )
    if not math.isfinite(rn):
        raise StepError(f"CH inner iteration: initial residual is {rn}", [rn])
    tol = CH_TOL * max(1.0, _norm(phi_n) * sqrt_vol)
    history = [rn]
    newton = False
    total = 0

    while rn > tol and total < MAX_INNER_ITERS:
        fcpp = potential_deriv(pot, phi, 2) + pot.c0
        sigma = 0.5 * (float(fcpp.min()) + float(fcpp.max()))
        precond = _ch_preconditioner(grid, dt, mbar, sigma)

        if not newton:
            delta = precond(res)
        else:
            def matvec(v):
                v = v.reshape(grid.cell_shape)
                gmu = _grad_arrays(grid, -_lap_arr(grid, v) + fcpp * v)
                out = v - dt * _div_arrays(grid, [m * g for m, g in zip(m_face, gmu)])
                return out.ravel()

            sol, info = gmres(matvec, res.ravel(), rtol=1e-6, restart=30, maxiter=10,
                              M=lambda v: precond(v.reshape(grid.cell_shape)).ravel())
            if info != 0:
                raise StepError(
                    f"CH inner Newton solve failed (gmres info={info})", history
                )
            delta = sol.reshape(grid.cell_shape)
        delta -= delta.sum() / delta.size  # delta - delta.mean(), in place

        omega = 1.0
        accepted = False
        for _ in range(8):
            trial = phi - omega * delta
            # `not <` keeps a nan iterate out of the log domain
            if pot.kind == "logarithmic" and not float(np.abs(trial).max()) < 1.0 - 1e-13:
                omega *= 0.5
                continue
            gphi = _grad_arrays(grid, trial)
            lap = _div_arrays(grid, gphi)
            cvx = potential_convex_deriv(pot, trial)
            res_t, rn_t, ev_t = residual(trial, gphi, lap, -lap + cvx)
            if rn_t < rn or omega <= 1.0 / 64.0:
                accepted = rn_t < rn
                break
            omega *= 0.5
        total += 1
        if accepted:
            phi, res, ev, rn = trial, res_t, ev_t, rn_t
            history.append(rn)
            if not newton and len(history) > 6:
                rate = rn / history[-6]
                newton = rate > 0.5 or rn * rate ** ((MAX_INNER_ITERS - total) / 5) > tol
        elif not newton:
            newton = True
        else:
            raise StepError(
                f"CH inner iteration stalled at residual {rn:.3e} (tol {tol:.1e})",
                history,
            )
    if rn > tol:
        raise StepError(
            f"CH inner iteration exceeded {MAX_INNER_ITERS} iterations "
            f"(residual {rn:.3e}, tol {tol:.1e})",
            history,
        )
    mu, gphi, lap, mu_cvx, gmu, flux = ev
    mob = 0.0  # sum of <m grad mu, grad mu> over the axes, for the record
    for f, g in zip(flux, gmu):
        mob += float(np.vdot(f, g))
    return ScalarField(grid, phi), ScalarField(grid, mu), (gphi, lap, mu_cvx, mob)


# ---------------------------------------------------------------------------
# momentum step

def _face_drag(u, r, cc):
    """|u|^{r-1} on each component's faces (ones when r = 1); ``cc`` is
    `center_components(u)`."""
    if r == 1.0:
        return [np.ones_like(a) for a in u.components]
    return [face_speed(u, c, cc) ** (r - 1.0) for c in range(u.grid.dim)]


def _cg_component(grid, c, b, x0, lap_x0, drag, params):
    """Solve A x = b for velocity component c by preconditioned CG, with
    A = (1 + dt beta drag) - dt nu Lap_c; ``lap_x0`` is Lap_c x0.  Returns
    (x, iterations).

    The preconditioner P is the exact inverse of A at the mid-range drag
    dbar (`_face_inverse`), so a constant drag takes one iteration.
    A = P^{-1} + e with the diagonal e = dt beta (drag - dbar), so
    A P r = r + e P r needs no Laplacian (Eisenstat, SIAM J. Sci. Stat.
    Comput. 2 (1981) 1-4), and the image of each search direction follows
    from the recurrence A p_k = A z_k + beta_k A p_{k-1}: the loop never
    applies the stencil.  The identity holds for r with zero wall faces, as
    `_face_inverse` requires; u, the projected force and the convection are
    pinned there, so every b, x0 and CG iterate of `step_ns` is too.  P
    writes into one buffer of its own, and its sine-basis symbol is built
    once per (grid, c, dt nu).  Stops when the recursively updated residual
    r (equal to b - A x in exact arithmetic; not its preconditioned form)
    satisfies ||r|| <= VISCOUS_RTOL ||b||.
    """
    dt, nu, beta = params.dt, params.nu, params.beta
    x = x0.copy()
    r = b - (x0 - dt * nu * lap_x0 + dt * beta * drag * x0)
    with np.errstate(over="ignore"):  # an overflowing norm fails the check below
        bnorm = _norm(b)
    if not math.isfinite(bnorm):
        raise StepError(f"implicit velocity solve: right-hand side norm is {bnorm}")
    if bnorm == 0.0:
        return np.zeros(b.shape), 0
    rnorm = _norm(r)
    if rnorm <= VISCOUS_RTOL * bnorm:
        return x, 0
    dbar = 0.5 * (float(drag.min()) + float(drag.max()))
    shift = 1.0 + dt * beta * dbar
    e = dt * beta * (drag - dbar)
    denom = shift + _viscous_symbol(grid, c, dt * nu)
    z = _face_inverse(grid, c, r, shift, denom, np.empty(drag.shape))
    p = z.copy()
    ap = r + e * z
    rz = float(np.vdot(r, z))
    for it in range(1, MAX_VISCOUS_ITERS + 1):
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        rnorm = _norm(r)
        if rnorm <= VISCOUS_RTOL * bnorm:
            return x, it
        _face_inverse(grid, c, r, shift, denom, z)
        rz_new = float(np.vdot(r, z))
        beta_k = rz_new / rz
        p *= beta_k
        p += z
        ap *= beta_k
        ap += r + e * z
        rz = rz_new
    raise StepError(
        f"implicit velocity solve stalled at relative residual {rnorm / bnorm:.3e}"
    )


@lru_cache(maxsize=16)
def _viscous_symbol(grid, c, dt_nu):
    """dt nu times `_face_symbol(grid, c)`, built once per (grid, c, dt nu)."""
    return dt_nu * _face_symbol(grid, c)


def step_ns(state, params, mu_half, ext):
    """One implicit viscosity/damping step with projected capillary force;
    ``ext`` is the external force at the new time (or None).  Returns (u, pi)."""
    grid = state.u.grid
    dt = params.dt
    nd = grid.dim

    gphi = state.faces_grad_phi()
    force = [cell_to_face(mu_half, c) for c in range(nd)]
    for f, g in zip(force, gphi):
        f *= g
    if ext is not None:
        force = [f + a for f, a in zip(force, ext.components)]
    fv = VectorField(grid, tuple(force))
    fv.zero_normal_boundaries()
    f_proj, q1, _ = helmholtz_project_with_potential(fv)
    del force, fv  # the solves below keep alive no array they do not read

    cc = state.cells_u()
    conv = convection(state.u, state.u, cc)
    drag = _face_drag(state.u, params.r, cc)
    lap_u = state.faces_lap_u()
    rhs = [state.u.components[c] + dt * (f_proj.components[c] - conv.components[c])
           for c in range(nd)]
    del f_proj, conv

    new_comps = []
    for c in range(nd):
        sol, _ = _cg_component(grid, c, rhs[c], state.u.components[c], lap_u[c], drag[c], params)
        new_comps.append(sol)

    tilde = VectorField(grid, tuple(new_comps))
    tilde.zero_normal_boundaries()
    u_new, q2, _ = helmholtz_project_with_potential(tilde)
    pi = ScalarField(grid, q1.data + q2.data / dt)
    return u_new, pi


# ---------------------------------------------------------------------------
# coupled step and diagnostics assembly

def damping_pairing(u1, u2, r):
    """< |u1|^{r-1} u1 - |u2|^{r-1} u2, u1 - u2 > at cell centers.

    The collocated form is the gradient of a convex functional of the face
    values, so the sum is non-negative term by term.
    """
    if r < 1.0:
        raise ParameterError(f"absorption exponent must be >= 1, got {r}")
    c1 = center_components(u1)
    c2 = center_components(u2)
    m1 = np.sqrt(sum(a * a for a in c1))
    m2 = np.sqrt(sum(a * a for a in c2))
    w1 = np.ones_like(m1) if r == 1.0 else m1 ** (r - 1.0)
    w2 = np.ones_like(m2) if r == 1.0 else m2 ** (r - 1.0)
    acc = 0.0
    for a, b in zip(c1, c2):
        acc += float(((w1 * a - w2 * b) * (a - b)).sum())
    return acc * u1.grid.cell_volume


def _lr_norm_power(u, r, cc):
    """||u||_{L^{r+1}}^{r+1} with the cell-collocated magnitudes of ``cc``,
    `center_components(u)`; an overflow comes back as inf, silently, for the
    record's finiteness check."""
    mags = np.sqrt(sum(a * a for a in cc))
    with np.errstate(over="ignore"):
        return float((mags ** (r + 1.0)).sum()) * u.grid.cell_volume


def _state_record(state, pot, visc_diss=0.0, damp_diss=0.0, mob_diss=0.0, work=0.0):
    """Diagnostics of ``state`` with the given dissipation and work columns
    (zero for the t = 0 record).  Raises StepError naming a column that is
    not finite, such as a ||u||^{r+1} that overflows."""
    u, phi, grid = state.u, state.phi, state.phi.grid
    interf = 0.0
    for a in state.faces_grad_phi():
        interf += float(np.vdot(a, a))
    interf *= 0.5 * grid.cell_volume
    cols = dict(
        t=state.t,
        mass=phi.mean(),
        kinetic=0.5 * vector_inner(u, u),
        interfacial=interf,
        bulk=float(potential_value(pot, phi.data).sum()) * grid.cell_volume,
        visc_diss=visc_diss,
        damp_diss=damp_diss,
        mob_diss=mob_diss,
        work=work,
        div_max=float(np.abs(divergence_fc(u).data).max()),
        phi_max=float(np.abs(phi.data).max()),
    )
    for name, value in cols.items():
        if not math.isfinite(value):
            raise StepError(f"diagnostics column {name} is {value} at t={state.t}")
    return DiagnosticsRecord(**cols)


def _step_record(state, mob, pot, params, ext):
    """Diagnostics of a stepped ``state``; ``mob`` is the sum over the axes
    of <m grad mu^{n+1/2}, grad mu^{n+1/2}> (`step_ch`), ``ext`` the
    external force sampled at the state's time."""
    u = state.u
    return _state_record(
        state,
        pot,
        visc_diss=params.nu * dirichlet_energy(u, state.faces_lap_u()),
        damp_diss=params.beta * _lr_norm_power(u, params.r, state.cells_u()),
        mob_diss=mob * state.phi.grid.cell_volume,
        work=vector_inner(ext, u) if ext is not None else 0.0,
    )


def step_coupled(state, params, pot, mob):
    """Advance the coupled system by one dt; returns (state, record).  The
    record and a constant mobility's next state share the mobility faces
    `step_ch` read from ``state``.  The caches of ``state`` that only this
    step reads are dropped once read, so they do not live through the rest
    of the step."""
    grid = state.phi.grid
    umax = state.u.max_abs()
    if umax > 0.0 and params.dt > grid.h / (CFL_SAFETY * umax):
        raise StepError(
            f"advective CFL guard: dt={params.dt} exceeds "
            f"h/({CFL_SAFETY}*max|u|)={grid.h / (CFL_SAFETY * umax):.3e}"
        )

    t_new = state.t + params.dt
    ext = params.forcing.sample(grid, t_new)
    phi_new, mu_half, (gphi, lap_phi, mu_cvx, mob_sum) = step_ch(state, params, pot, mob)
    state.lap_phi = state.mu_convex = None
    u_new, pi_new = step_ns(state, params, mu_half, ext)
    state.centers = None

    new_state = State(
        t=t_new, u=u_new, phi=phi_new, pi=pi_new, grad_phi=gphi, lap_phi=lap_phi,
        mu_convex=mu_cvx, materials=(pot, mob),
    )
    if mob.kind == "constant":
        new_state.m_faces, new_state.m_mid = state.m_faces, state.m_mid
    new_state.check_finite()
    return new_state, _step_record(new_state, mob_sum, pot, params, ext)


# ---------------------------------------------------------------------------
# simulation driver

class Simulation:
    """Owns one trajectory: grid, materials, params, state and its ledger."""

    def __init__(self, grid, params, pot, mob, state):
        self.grid = grid
        self.params = params
        self.pot = pot
        self.mob = mob
        self.state = state
        self.ledger = TrajectoryLedger(dt=params.dt)
        self.ledger.append(_state_record(state, pot))
        state.faces_lap_u()  # read by step 1; later steps inherit it from the record

    def step(self):
        self.state, record = step_coupled(self.state, self.params, self.pot, self.mob)
        self.ledger.append(record)
        return record

    def run(self, n_steps=None):
        """Take ``n_steps`` steps, by default ``params.n_steps``."""
        for _ in range(self.params.n_steps if n_steps is None else n_steps):
            self.step()
        return self.ledger
