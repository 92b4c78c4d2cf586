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
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemSpec",
    "FieldSet",
    "StateVector",
    "ground_state",
    "envelope_pair",
    "envelope_pairs",
    "log_envelope_ratio",
    "hamiltonian",
]


def as_float(value) -> float:
    """``float(value)``, with an integer too large for a float read as infinite.

    Callers reject infinities with their own finiteness checks, so a
    400-digit JSON number is bad input (ValueError), not an OverflowError.
    """
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


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
        # stored as ints, so that a count of 7.0 hashes and indexes like 7
        for name in ("n_intermediate", "n_degenerate"):
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be a whole number, "
                                 f"not {value!r}") from None
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
        # stored as a float, so that a width of 1 hashes like one of 1.0
        object.__setattr__(self, "width", as_float(self.width))
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
    def coupling_stack(self) -> np.ndarray:
        """Read-only (2, d, d) pump and Stokes blocks, built once on first use.

        ``H(t) = f_p * stack[0] + f_s * stack[1]`` with ``(f_p, f_s)`` from
        :func:`envelope_pair`; both blocks are Hermitian and constant.
        """
        n, m = self.n_intermediate, self.n_degenerate
        stack = np.zeros((2, 1 + n + m, 1 + n + m), dtype=complex)
        stack[0, 0, 1:1 + n] = self.peak_rabi_pump
        stack[0, 1:1 + n, 0] = self.peak_rabi_pump.conj()
        stack[1, 1:1 + n, 1 + n:] = self.peak_rabi_stokes
        stack[1, 1 + n:, 1:1 + n] = self.peak_rabi_stokes.conj().T
        stack.setflags(write=False)
        return stack

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


def _exponents(t, width: float):
    """The (pump, Stokes) Gaussian exponents at time t.

    The trajectory CSV bytes pin this arithmetic: ``** 2`` (libm ``pow`` on
    a Python float), not a multiply or an array square; each differs in the
    last bit on some arguments.
    """
    return -((t - width) / width) ** 2, -(t / width) ** 2


def envelope_pair(t, width: float):
    """Gaussian (pump, Stokes) envelopes, unit peaks at t = width and t = 0.

    ``np.exp``, not ``math.exp``, of :func:`_exponents`: the two differ in
    the last bit on some arguments.
    """
    pump, stokes = _exponents(t, width)
    return np.exp(pump), np.exp(stokes)


def envelope_pairs(times, width: float) -> np.ndarray:
    """:func:`envelope_pair` at each of ``times``, as one (k, 2) float array.

    One ``np.exp`` call over the exponents of all the times, each formed as
    :func:`envelope_pair` forms it.  numpy's ``exp`` gives each value the
    same bits in an array as alone, so row i equals
    ``envelope_pair(times[i], width)`` bit for bit; ``TestEnvelopePair``
    checks that on 600,000 times.  The integrator evaluates the envelopes
    of a step's stages this way.
    """
    exponents = []
    for t in times:
        exponents += _exponents(t, width)
    return np.exp(exponents).reshape(-1, 2)


def log_envelope_ratio(t: float, width: float) -> float:
    """``log(f_p / f_s)`` of :func:`envelope_pair`; finite where both underflow."""
    return 2.0 * t / width - 1.0


def hamiltonian(system: SystemSpec, fields: FieldSet, t: float) -> np.ndarray:
    """Dressed Hamiltonian at the scalar time t (half-Rabi entries, Hermitian).

    Row/column 0 couples to the intermediates through the pump amplitudes and
    the intermediates couple to the degenerate manifold through the Stokes
    amplitudes; every other entry, including the whole diagonal, is exactly
    zero (resonant couplings, no intermediate-intermediate coupling).  It is
    :attr:`FieldSet.coupling_stack` weighted by :func:`envelope_pair`,
    formed as one real ``dot`` of the envelope pair with the stack's float
    view in place of two scaled copies and their sum: about 3.6 us per call
    at d = 15, not 5.0 us.  The pump and Stokes blocks have disjoint
    supports, so each entry is one rounded product plus an exact zero, and
    the result equals ``f_p * stack[0] + f_s * stack[1]`` bit for bit,
    signed zeros included.
    """
    system.check_fields(fields)
    stack = fields.coupling_stack
    weighted = np.array(envelope_pair(t, fields.width)).dot(
        stack.reshape(2, -1).view(float))
    return weighted.view(complex).reshape(stack.shape[1:])
