"""Per-step ledger of every quantity entering the energy identities.

A `DiagnosticsRecord` is one CSV row (fixed column order); a
`TrajectoryLedger` is the ordered collection for one run plus auxiliary
per-step scalars (kept in memory, not part of the CSV schema) used by the
degenerate-identity residual.  The energies of every record are built
by `solver._state_record`, the package's one energy path.

The continuous balances hold only in the time-step limit, so the residual
functions below are meant to be driven at several step sizes; first-order
decay of `energy_balance_residual` is the numerical witness of the energy
equality.
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
    extras: dict = field(default_factory=dict)

    def append(self, record, extras=None):
        if self.records:
            expected = self.records[0].t + len(self.records) * self.dt
            if record.t <= self.records[-1].t:
                raise ValueError("record times must be strictly increasing")
            if abs(record.t - expected) > 1e-9 * max(1.0, abs(expected)):
                raise ValueError(
                    f"non-uniform spacing: expected t={expected}, got {record.t}"
                )
        self.records.append(record)
        for key, val in (extras or {}).items():
            self.extras.setdefault(key, []).append(val)


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


_DEG_KEYS = ("phi_l2_sq", "deg_grad", "deg_cross", "deg_flux")
_DEG_POTENTIALS = ("logarithmic", "regularized")


def _deg_identity_applies(pot, mob):
    """True for the materials `degenerate_energy_residual` accepts."""
    return mob.kind == "clamped" and pot.kind in _DEG_POTENTIALS


def degenerate_energy_residual(ledger, pot, mob):
    """Signed, normalized defect of the L2-level balance for clamped runs.

    The identity balances (1/2)(||u||^2 + ||phi||^2) against viscous and
    damping dissipation, the mF''|grad phi|^2 term, the (Delta phi grad phi, u)
    cross term and the (m grad Delta phi, grad phi) flux term.  Two of those
    are sign-indefinite, so the value is returned signed.
    """
    if not _deg_identity_applies(pot, mob):
        raise PreconditionError(
            "degenerate residual needs a logarithmic/regularized potential and a clamped "
            f"mobility, got {pot.kind}/{mob.kind}"
        )
    if not ledger.records or any(k not in ledger.extras for k in _DEG_KEYS):
        raise PreconditionError("ledger does not carry the degenerate-identity extras")
    recs = ledger.records
    dt = ledger.dt
    phi_l2 = ledger.extras["phi_l2_sq"]
    e0 = recs[0].kinetic + 0.5 * phi_l2[0]
    e1 = recs[-1].kinetic + 0.5 * phi_l2[-1]
    acc = e1 - e0
    norm = abs(e0)
    for i, rec in enumerate(recs[1:], start=1):
        terms = (
            ledger.extras["deg_grad"][i]
            + rec.visc_diss
            + rec.damp_diss
            + ledger.extras["deg_cross"][i]
            - ledger.extras["deg_flux"][i]
            - rec.work
        )
        acc += dt * terms
        norm += dt * (
            abs(ledger.extras["deg_grad"][i])
            + rec.visc_diss
            + rec.damp_diss
            + abs(ledger.extras["deg_cross"][i])
            + abs(ledger.extras["deg_flux"][i])
        )
    if norm == 0.0:
        return 0.0
    return acc / norm


def degenerate_identity_extras(u, phi, pot, gphi, lap, m_faces):
    """Per-step scalars for `degenerate_energy_residual`.

    ``gphi``, ``lap`` and ``m_faces`` are the face gradient, the Neumann
    Laplacian and the mobility faces of phi, which the stepped `State`
    already carries.  The mF''|grad phi|^2 term is assembled as
    <m grad(F'(phi)), grad phi> (face differences of F'), which keeps the
    u = 0 identity exact in space.
    """
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
    return {
        "phi_l2_sq": float(np.vdot(phi.data, phi.data)) * vol,
        "deg_grad": deg_grad * vol,
        "deg_cross": deg_cross * vol,
        "deg_flux": deg_flux * vol,
    }


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
