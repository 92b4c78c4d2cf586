"""Construction of pulse sets that carry a multi-node dark eigenstate.

The designer enforces the phase-matching condition between pump and Stokes
peak amplitudes, ``conj(rabi_pump[k]) = eta * sum_j c_j rabi_stokes[k, j]``
for a nonzero constant ``eta`` and target coefficients ``c``.  Fields built
this way give the dressed Hamiltonian a null eigenvector with nodes on every
intermediate state and on the whole degenerate manifold orthogonal to the
target direction, at all times.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import FieldSet, SystemSpec

__all__ = [
    "DesignError",
    "TargetSpec",
    "DesignReport",
    "VerifyResult",
    "effective_dipoles",
    "check_feasibility",
    "design_fields",
    "matched_pump_rabi",
    "numerical_rank",
    "verify_design",
]

# Singular values at or below this fraction of the largest one count as zero
# (numerical_rank); the rule reads no determinant, so neither the size nor
# the units of a matrix move it.
SINGULAR_REL_TOL = 1e-12

# Effective couplings at or below this fraction of the largest one are
# treated as exact zeros and prune their pumps (_pruned, the one rule).
PRUNE_REL_TOL = 1e-12

# Design-condition residual threshold, relative to the largest peak amplitude.
VERIFY_REL_TOL = 1e-10


class DesignError(ValueError):
    """A requested field design is infeasible or ill-posed."""


@dataclass(frozen=True)
class TargetSpec:
    """Unit-norm coefficients of the target state in the degenerate basis."""

    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("target coefficients must form a nonempty vector")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"target coefficients must have unit norm, got {norm}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @classmethod
    def basis(cls, n_degenerate: int, index: int | None = None) -> "TargetSpec":
        """Pure basis target; defaults to the last degenerate state."""
        if index is None:
            index = n_degenerate
        if not 1 <= index <= n_degenerate:
            raise IndexError(f"target index must be in 1..{n_degenerate}")
        coeff = np.zeros(n_degenerate, dtype=complex)
        coeff[index - 1] = 1.0
        return cls(coeff)

    @classmethod
    def resolve(cls, target: "TargetSpec | None",
                n_degenerate: int) -> "TargetSpec":
        """``target`` checked against an M-fold manifold; None means the last state."""
        if target is None:
            return cls.basis(n_degenerate)
        if target.n_degenerate != n_degenerate:
            raise ValueError(
                f"target has {target.n_degenerate} coefficients, "
                f"system has {n_degenerate} degenerate states")
        return target

    @property
    def n_degenerate(self) -> int:
        return self.coefficients.size


@dataclass(frozen=True)
class DesignReport:
    """Feasibility verdict, the rows it selected and diagnostics.

    The verdict comes from the singular values of the selected Stokes block
    (:func:`numerical_rank`).  ``det_check``, the determinant of that block,
    is reported only: no verdict reads it, and it may read ±inf or NaN where
    the determinant overflows the floating-point range.
    """

    feasible: bool
    eta: complex
    pruned_pumps: frozenset[int]
    effective_target_dipoles: np.ndarray
    det_check: complex
    selected_rows: tuple[int, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        arr = np.asarray(self.effective_target_dipoles, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "effective_target_dipoles", arr)


class VerifyResult(NamedTuple):
    ok: bool
    residual: float
    eta: complex
    pruned: frozenset[int]


def effective_dipoles(system: SystemSpec, target: TargetSpec) -> np.ndarray:
    """Dipole couplings of each intermediate state to the target direction.

    Component k is ``sum_j c_j * mu_stokes[k, j]``; for a pure basis target
    this is just the corresponding column of the Stokes dipole matrix.
    """
    target = TargetSpec.resolve(target, system.n_degenerate)
    return system.mu_stokes @ target.coefficients


def numerical_rank(matrix) -> int:
    """Number of singular values above ``SINGULAR_REL_TOL`` times the largest.

    The one rank rule of the package (numerical rank, Golub & Van Loan,
    *Matrix Computations*).  A matrix whose singular values are not all
    finite has rank 0.
    """
    singular = np.linalg.svd(matrix, compute_uv=False)
    if not np.isfinite(singular).all():
        return 0
    return int((singular > SINGULAR_REL_TOL * singular[0]).sum())


def _pruned(effective: np.ndarray) -> np.ndarray:
    """Mask of the channels whose effective coupling counts as zero."""
    magnitude = np.abs(effective)
    return magnitude <= PRUNE_REL_TOL * magnitude.max(initial=0.0)


def _channels(mask: np.ndarray) -> frozenset[int]:
    """The 1-based channel numbers a mask selects, as a report names them."""
    return frozenset(int(k) + 1 for k in np.flatnonzero(mask))


def _pivot_rows(mu: np.ndarray, count: int) -> tuple[int, ...]:
    """Rows chosen by greedy column-pivoted QR of ``mu.T``, in ascending order.

    Gram-Schmidt with LAPACK's pivot rule: each step takes the row with the
    largest residual norm among those not yet taken, ties going to the first
    in LAPACK's swapped column order, and projects it out of the rest.
    Whenever ``mu`` has full column rank the choice equals
    ``scipy.linalg.qr(mu.T, pivoting=True)``'s first ``count`` pivots.

    ``mu`` is first divided by a power of two just above its largest real
    or imaginary part, so the squares inside the row norms neither overflow
    nor underflow at any units of the dipoles.  Division by a power of two
    is exact, so at ordinary scales every norm and projection, and so the
    choice, is what it is on ``mu`` itself.
    """
    residual = np.array(mu, dtype=complex)
    parts = residual.view(float)
    _, exponent = math.frexp(np.abs(parts).max(initial=0.0))
    np.ldexp(parts, -exponent, out=parts)
    order = list(range(len(residual)))
    for i in range(count):
        norms = np.linalg.norm(residual[order[i:]], axis=1)
        j = i + int(np.argmax(norms))
        order[i], order[j] = order[j], order[i]
        if norms[j - i] > 0.0:
            unit = residual[order[i]] / norms[j - i]
            residual -= np.outer(residual @ unit.conj(), unit)
    return tuple(sorted(order[:count]))


def check_feasibility(system: SystemSpec, target: TargetSpec,
                      eta: complex = 1.0 + 0.0j) -> DesignReport:
    """Decide whether a complete-transfer design exists for this system.

    Feasible iff the degenerate manifold is no larger than the intermediate
    one and some square sub-block of the Stokes dipole matrix (restricted to
    as many intermediate rows as there are degenerate states) is nonsingular.
    The sub-block is picked by greedy column-pivoted QR, which finds a
    nonsingular one whenever the matrix has full column rank, and judged by
    its singular values (:func:`numerical_rank`), so the verdict does not
    depend on the size or the units of the dipoles.  Its determinant is
    reported as ``det_check``, a diagnostic that may overflow to ±inf or NaN.
    Infeasibility is reported, never raised.
    """
    n, m = system.n_intermediate, system.n_degenerate
    effective = effective_dipoles(system, target)
    decoupled = _pruned(effective)
    pruned = _channels(decoupled)
    notes: list[str] = []

    if m > n:
        notes.append(
            "more degenerate states than intermediate channels: degenerate "
            "dressed states stay coupled and leakage inside the manifold "
            "cannot be suppressed, however slow the pulses")
        return DesignReport(False, eta, pruned, effective, 0.0j, (), tuple(notes))

    rows = _pivot_rows(system.mu_stokes, m)
    block = system.mu_stokes[list(rows), :]
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(block))
    singular = numerical_rank(block) < m
    if singular:
        # the last pivots fell among roundoff-level residuals: no block to name
        rows = ()
        notes.append("every square Stokes sub-block is singular; "
                     "the dark state cannot be pinned to the target direction")
    if decoupled.all():
        singular = True
        notes.append("target direction is decoupled from all intermediate states")
    if eta == 0:
        singular = True
        notes.append("eta must be nonzero")

    return DesignReport(not singular, eta, pruned, effective, det,
                        tuple(r + 1 for r in rows), tuple(notes))


def matched_pump_rabi(stokes_rabi: np.ndarray, target: TargetSpec,
                      eta: complex = 1.0 + 0.0j) -> np.ndarray:
    """Pump peak amplitudes satisfying the phase-matching condition.

    Works directly at the Rabi level: given the Stokes peak matrix, returns
    ``conj(eta * stokes_rabi @ c)`` with exact zeros on pruned channels.
    """
    if eta == 0:
        raise DesignError("eta must be nonzero")
    stokes_rabi = np.asarray(stokes_rabi, dtype=complex)
    effective = stokes_rabi @ target.coefficients
    pump = np.conj(eta * effective)
    pump[_pruned(effective)] = 0.0
    return pump


def design_fields(system: SystemSpec, target: TargetSpec, eta: complex,
                  width: float, stokes_amplitudes,
                  stokes_phases=None) -> FieldSet:
    """Build the full field set for a feasible system.

    The Stokes side is whatever the caller asks for: per-pulse field
    amplitudes and phases are converted through the dipole matrix
    (``2*rabi = mu * field * exp(i*phase)``).  The pump side is then forced
    by the phase-matching condition, with channels whose effective target
    coupling vanishes pruned to zero.

    Parameters
    ----------
    eta : nonzero complex
        Global pump/Stokes ratio.  The dark-state node structure exists for
        any nonzero value; magnitude sets the pump strength.
    stokes_amplitudes, stokes_phases : arrays of length N
        Peak field amplitude and phase of each Stokes pulse.  Phases default
        to zero.
    """
    # a zero eta is infeasible too, with the note "eta must be nonzero"
    report = check_feasibility(system, target, eta)
    if not report.feasible:
        raise DesignError("; ".join(report.notes) or "design infeasible")

    n = system.n_intermediate
    amplitudes = np.asarray(stokes_amplitudes, dtype=float)
    if amplitudes.shape != (n,):
        raise ValueError(f"need {n} Stokes amplitudes, got shape {amplitudes.shape}")
    if np.any(amplitudes < 0):
        raise ValueError("Stokes field amplitudes must be nonnegative")
    if stokes_phases is None:
        phases = np.zeros(n)
    else:
        phases = np.asarray(stokes_phases, dtype=float)
        if phases.shape != (n,):
            raise ValueError(f"need {n} Stokes phases, got shape {phases.shape}")

    per_pulse = 0.5 * amplitudes * np.exp(1j * phases)
    stokes_rabi = per_pulse[:, None] * system.mu_stokes
    pump_rabi = matched_pump_rabi(stokes_rabi, target, eta)
    return FieldSet(pump_rabi, stokes_rabi, width)


def verify_design(system: SystemSpec, fields: FieldSet,
                  target: TargetSpec | None = None) -> VerifyResult:
    """Check the phase-matching condition on an existing field set.

    Fits the best ratio ``eta`` by least squares over the non-pruned channels
    and reports the worst-case residual
    ``max_k |conj(rabi_pump[k]) - eta * effective_stokes[k]|`` over all
    channels (pruned ones must carry zero pump).  Verification additionally
    fails when the fitted pump amplitudes are indistinguishable from zero,
    since the condition requires a nonzero ratio.
    """
    system.check_fields(fields)
    target = TargetSpec.resolve(target, system.n_degenerate)

    effective = fields.peak_rabi_stokes @ target.coefficients
    pump_conj = np.conj(fields.peak_rabi_pump)
    live = ~_pruned(effective)
    pruned = _channels(~live)
    scale = fields.max_rabi
    tol = VERIFY_REL_TOL * scale if scale > 0 else VERIFY_REL_TOL

    if not live.any():
        # target decoupled everywhere: the condition degenerates to "no pumps"
        residual = float(np.abs(pump_conj).max(initial=0.0))
        return VerifyResult(bool(residual < tol), residual, 0.0j, pruned)

    weight = float(np.vdot(effective[live], effective[live]).real)
    eta = complex(np.vdot(effective[live], pump_conj[live]) / weight)
    residual = float(np.abs(pump_conj - eta * effective).max())
    significant = abs(eta) * float(np.abs(effective[live]).max()) >= tol
    return VerifyResult(bool(residual < tol and significant), residual, eta,
                        pruned)

