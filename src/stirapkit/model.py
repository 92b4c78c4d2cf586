"""Dressed-state model of a (1 + N + M)-level system driven by 2N Gaussian pulses.

Level ordering throughout the package: index 0 is the initial state, indices
1..N the nondegenerate intermediate states, indices N+1..N+M the degenerate
target manifold.  N pump pulses couple the initial state to the intermediates
and N Stokes pulses couple each intermediate to the whole degenerate manifold.

Conventions (natural units, hbar = 1):

* Time is measured in the same unit as the pulse width ``T``; peak Rabi
  amplitudes carry units of 1/T.
* Every matrix entry stores the *half* Rabi frequency: a coupling whose
  physical Rabi frequency is ``2*omega`` enters the Hamiltonian as ``omega``.
  Peak field amplitudes convert via ``2*rabi = mu * field * exp(i*phase)``.
* Pulse ordering is counter-intuitive: the Stokes envelope peaks at t = 0,
  the pump envelope at t = T.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemSpec",
    "FieldSet",
    "StateVector",
    "ground_state",
    "pump_envelope",
    "stokes_envelope",
    "coupling_blocks",
    "hamiltonian",
]


def _complex_array(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """Read-only complex copy of ``values``, checked for shape and finiteness."""
    arr = np.array(values, dtype=complex)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SystemSpec:
    """Level counts and transition dipole matrices of the bare system.

    ``mu_pump[k]`` is the dipole moment between the initial state and
    intermediate k; ``mu_stokes[k, j]`` couples intermediate k to degenerate
    state j.  Dipole units are arbitrary but must be consistent.
    """

    n_intermediate: int
    n_degenerate: int
    mu_pump: np.ndarray
    mu_stokes: np.ndarray

    def __post_init__(self):
        if self.n_intermediate < 1 or self.n_degenerate < 1:
            raise ValueError("need at least one intermediate and one degenerate state")
        object.__setattr__(
            self, "mu_pump",
            _complex_array(self.mu_pump, (self.n_intermediate,), "mu_pump"))
        object.__setattr__(
            self, "mu_stokes",
            _complex_array(self.mu_stokes,
                           (self.n_intermediate, self.n_degenerate), "mu_stokes"))

    @property
    def dim(self) -> int:
        return 1 + self.n_intermediate + self.n_degenerate

    def check_fields(self, fields: "FieldSet") -> None:
        """Raise ValueError unless ``fields`` has N pumps and an N x M Stokes block."""
        shape = (fields.n_intermediate, fields.n_degenerate)
        if shape != (self.n_intermediate, self.n_degenerate):
            raise ValueError(f"field set shaped {shape} does not match system "
                             f"({self.n_intermediate}, {self.n_degenerate})")


@dataclass(frozen=True)
class FieldSet:
    """Peak half-Rabi amplitudes of the N pump and N x M Stokes couplings.

    This is the canonical dynamical input: together with the common width it
    fully determines the dressed Hamiltonian at every time.
    """

    peak_rabi_pump: np.ndarray
    peak_rabi_stokes: np.ndarray
    width: float

    def __post_init__(self):
        if not 0 < self.width < math.inf:
            raise ValueError("pulse width must be positive and finite")
        stokes = np.asarray(self.peak_rabi_stokes, dtype=complex)
        if stokes.ndim != 2:
            raise ValueError("peak_rabi_stokes must be a 2-d array")
        n, m = stokes.shape
        object.__setattr__(
            self, "peak_rabi_pump",
            _complex_array(self.peak_rabi_pump, (n,), "peak_rabi_pump"))
        object.__setattr__(
            self, "peak_rabi_stokes",
            _complex_array(stokes, (n, m), "peak_rabi_stokes"))

    @property
    def n_intermediate(self) -> int:
        return self.peak_rabi_stokes.shape[0]

    @property
    def n_degenerate(self) -> int:
        return self.peak_rabi_stokes.shape[1]

    @property
    def max_rabi(self) -> float:
        """Largest peak amplitude across all couplings; the natural scale."""
        return max(np.abs(self.peak_rabi_pump).max(initial=0.0),
                   np.abs(self.peak_rabi_stokes).max(initial=0.0))

    @functools.cached_property
    def _blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``coupling_blocks(self)``, read-only, built on first use."""
        blocks = coupling_blocks(self)
        for block in blocks:
            block.setflags(write=False)
        return blocks

    def scaled(self, factor: float) -> "FieldSet":
        """All peak amplitudes multiplied by ``factor``; width unchanged."""
        return FieldSet(self.peak_rabi_pump * factor,
                        self.peak_rabi_stokes * factor, self.width)

    def with_width(self, width: float) -> "FieldSet":
        """Same peak amplitudes with a different common pulse width."""
        return FieldSet(self.peak_rabi_pump, self.peak_rabi_stokes, width)


@dataclass(frozen=True)
class StateVector:
    """State of the full system: complex amplitudes ordered (z0; x_1..x_N; y_1..y_M).

    ``components`` is always a fresh, finite, read-only complex copy of the
    input, so later writes to the input never reach the state.  Only
    :func:`~stirapkit.nullspace.track_null_frame` hands out vectors whose
    components are views, of its own read-only frame stack.
    """

    components: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arr = np.array(self.components, dtype=complex)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("state vector must be a nonempty 1-d array")
        if not np.isfinite(arr).all():
            raise ValueError("state vector must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "components", arr)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


def ground_state(system: SystemSpec, time: float = 0.0) -> StateVector:
    """All population in the initial state."""
    components = np.zeros(system.dim, dtype=complex)
    components[0] = 1.0
    return StateVector(components, time)


def pump_envelope(t, width: float):
    """Gaussian pump envelope, unit peak at t = width."""
    return np.exp(-((t - width) / width) ** 2)


def stokes_envelope(t, width: float):
    """Gaussian Stokes envelope, unit peak at t = 0."""
    return np.exp(-(t / width) ** 2)


def coupling_blocks(fields: FieldSet) -> tuple[np.ndarray, np.ndarray]:
    """Constant pump and Stokes coupling matrices.

    The full Hamiltonian factorizes as
    ``H(t) = pump_envelope(t) * H_pump + stokes_envelope(t) * H_stokes``;
    both blocks are Hermitian and time independent, which is what the
    propagator exploits.
    """
    n, m = fields.n_intermediate, fields.n_degenerate
    dim = 1 + n + m
    h_pump = np.zeros((dim, dim), dtype=complex)
    h_pump[0, 1:1 + n] = fields.peak_rabi_pump
    h_pump[1:1 + n, 0] = fields.peak_rabi_pump.conj()
    h_stokes = np.zeros((dim, dim), dtype=complex)
    h_stokes[1:1 + n, 1 + n:] = fields.peak_rabi_stokes
    h_stokes[1 + n:, 1:1 + n] = fields.peak_rabi_stokes.conj().T
    return h_pump, h_stokes


def hamiltonian(system: SystemSpec, fields: FieldSet, t: float) -> np.ndarray:
    """Dressed Hamiltonian at time t (half-Rabi entries, Hermitian).

    Row/column 0 couples to the intermediates through the pump amplitudes and
    the intermediates couple to the degenerate manifold through the Stokes
    amplitudes; every other entry, including the whole diagonal, is exactly
    zero (resonant couplings, no intermediate-intermediate coupling).  The
    two coupling blocks are built once per field set and reused.
    """
    system.check_fields(fields)
    h_pump, h_stokes = fields._blocks
    return (pump_envelope(t, fields.width) * h_pump
            + stokes_envelope(t, fields.width) * h_stokes)
