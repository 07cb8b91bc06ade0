"""Per-step ledger of every quantity entering the energy identities.

A `DiagnosticsRecord` is one CSV row (fixed column order); a
`TrajectoryLedger` is the ordered collection for one run.  The energies of
every record are built by `solver._state_record`, the package's one energy
path.

The continuous balances hold only in the time-step limit, so the residual
functions below are meant to be driven at several step sizes; first-order
decay of `energy_balance_residual` is the numerical witness of the energy
equality.  `degenerate_energy_residual` steps the run it measures itself:
the scalars of its L2-level identity are evaluated on the states it steps
through, and no plain step computes them.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import PreconditionError
from .grid import ScalarField, _grad_arrays, cell_to_face
from .materials import potential_deriv
from .poisson import neumann_inverse

__all__ = [
    "CSV_COLUMNS",
    "DiagnosticsRecord",
    "TrajectoryLedger",
    "energy_balance_residual",
    "degenerate_energy_residual",
    "hminus1_distance",
    "entropy_functional",
    "overshoot_functional",
]

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    kinetic: float
    interfacial: float
    bulk: float
    visc_diss: float
    damp_diss: float
    mob_diss: float
    work: float
    div_max: float
    phi_max: float

    def __post_init__(self):
        for name in ("visc_diss", "damp_diss", "mob_diss"):
            if getattr(self, name) < -1e-14:
                raise ValueError(f"dissipation entry {name} is negative: {getattr(self, name)}")
        for name in ("kinetic", "interfacial", "bulk"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"energy entry {name} is not finite")

    @property
    def energy(self):
        return self.kinetic + self.interfacial + self.bulk

    @property
    def dissipation(self):
        return self.visc_diss + self.damp_diss + self.mob_diss

    def to_csv_row(self):
        return ",".join(repr(getattr(self, c)) for c in CSV_COLUMNS)


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))  # a row's column order


@dataclass
class TrajectoryLedger:
    """Ordered per-step records with uniform spacing dt."""

    dt: float
    records: list = field(default_factory=list)

    def append(self, record):
        if self.records:
            expected = self.records[0].t + len(self.records) * self.dt
            if record.t <= self.records[-1].t:
                raise ValueError("record times must be strictly increasing")
            if abs(record.t - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"non-uniform spacing: expected t={expected}, got {record.t}"
                )
        self.records.append(record)


# ---------------------------------------------------------------------------
# trajectory residuals

def energy_balance_residual(ledger):
    """Normalized defect of the discrete energy balance over the whole run.

    R = E(t1) - E(0) + sum dt*(visc + damp + mob - work); returned as
    |R| / (E(0) + total dissipation), which is scale-free across sweeps.
    """
    if not ledger.records:
        raise PreconditionError("energy_balance_residual needs a non-empty ledger")
    recs = ledger.records
    dt = ledger.dt
    diss = sum(r.dissipation for r in recs[1:]) * dt
    work = sum(r.work for r in recs[1:]) * dt
    r_val = recs[-1].energy - recs[0].energy + diss - work
    norm = recs[0].energy + diss
    if norm == 0.0:
        return 0.0
    return abs(r_val) / norm


_DEG_POTENTIALS = ("logarithmic", "regularized")


def _deg_identity_applies(pot, mob):
    """True for the materials `degenerate_energy_residual` accepts."""
    return mob.kind == "clamped" and pot.kind in _DEG_POTENTIALS


def degenerate_energy_residual(sim, n_steps):
    """Step ``sim`` ``n_steps`` times; returns the signed, normalized defect
    of the L2-level balance for clamped runs over those steps.

    The identity balances (1/2)(||u||^2 + ||phi||^2) against viscous and
    damping dissipation, the mF''|grad phi|^2 term, the (Delta phi grad phi, u)
    cross term and the (m grad Delta phi, grad phi) flux term.  Two of those
    are sign-indefinite, so the value is returned signed.  The materials are
    checked before any step.
    """
    pot, mob = sim.pot, sim.mob
    if not _deg_identity_applies(pot, mob):
        raise PreconditionError(
            "degenerate residual needs a logarithmic/regularized potential and a clamped "
            f"mobility, got {pot.kind}/{mob.kind}"
        )
    phi_l2, *_ = degenerate_identity_extras(sim.state, pot, mob)
    e0 = e1 = sim.ledger.records[-1].kinetic + 0.5 * phi_l2
    steps = []
    for _ in range(n_steps):
        rec = sim.step()
        phi_l2, deg_grad, deg_cross, deg_flux = degenerate_identity_extras(sim.state, pot, mob)
        e1 = rec.kinetic + 0.5 * phi_l2
        steps.append((
            deg_grad + rec.visc_diss + rec.damp_diss + deg_cross - deg_flux - rec.work,
            abs(deg_grad) + rec.visc_diss + rec.damp_diss + abs(deg_cross) + abs(deg_flux),
        ))
    dt = sim.ledger.dt
    acc = e1 - e0
    norm = abs(e0)
    for terms, size in steps:
        acc += dt * terms
        norm += dt * size
    if norm == 0.0:
        return 0.0
    return acc / norm


def degenerate_identity_extras(state, pot, mob):
    """(||phi||^2, the mF''|grad phi|^2 term, the cross term, the flux term)
    of ``state``, the scalars of `degenerate_energy_residual`.

    They read the face gradient, the Neumann Laplacian and the mobility
    faces of phi that the stepped `State` carries.  The mF''|grad phi|^2
    term is assembled as <m grad(F'(phi)), grad phi> (face differences of
    F'), which keeps the u = 0 identity exact in space.
    """
    u, phi, gphi, lap = state.u, state.phi, state.faces_grad_phi(), state.cells_lap_phi()
    m_faces = state.faces_mobility(pot, mob)
    grid = phi.grid
    vol = grid.cell_volume
    gF = _grad_arrays(grid, potential_deriv(pot, phi.data, 1))
    glap = _grad_arrays(grid, lap)
    deg_grad = 0.0
    deg_flux = 0.0
    deg_cross = 0.0
    for c in range(grid.dim):
        deg_grad += float(np.vdot(m_faces[c] * gF[c], gphi[c]))
        deg_flux += float(np.vdot(m_faces[c] * glap[c], gphi[c]))
        lap_face = cell_to_face(lap, c)
        deg_cross += float(np.vdot(lap_face * gphi[c], u.components[c]))
    return (float(np.vdot(phi.data, phi.data)) * vol, deg_grad * vol, deg_cross * vol,
            deg_flux * vol)


# ---------------------------------------------------------------------------
# distances and functionals

def hminus1_distance(phi1, phi2):
    """(||rho||_*, ||rho||) for rho = phi1 - phi2 with its mean removed."""
    if phi1.grid != phi2.grid:
        raise PreconditionError("fields must share a grid")
    rho = phi1.data - phi2.data
    rho = rho - rho.mean()
    f = ScalarField(phi1.grid, rho)
    _, star, _ = neumann_inverse(f)
    l2 = float(np.linalg.norm(rho)) * phi1.grid.cell_volume**0.5
    return star, l2


def entropy_functional(phi, entropy):
    """Integral of G(phi) by midpoint quadrature."""
    return float(np.sum(entropy.value(phi.data))) * phi.grid.cell_volume


def overshoot_functional(phi):
    """Integral of (|phi| - 1)_+^2, the pure-phase overshoot measure."""
    over = np.maximum(np.abs(phi.data) - 1.0, 0.0)
    return float(np.sum(over**2)) * phi.grid.cell_volume
