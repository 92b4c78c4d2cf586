"""Time-dependent Schrodinger propagation over the pulse window.

Integrates ``i dpsi/dt = H(t) psi`` (hbar = 1) with an adaptive high-order
Runge-Kutta method on the complex state.  The right-hand side reuses the
factorization of the Hamiltonian into two constant Hermitian blocks times
scalar Gaussian envelopes: both blocks, built once per field set and
premultiplied by -i, are stacked into one matrix once per run, so each
evaluation is one matvec with the stack and one two-term contraction with the
two envelope values.

Window, stride and step limits are expressed in units of the pulse width;
peak Rabi amplitudes keep their own reciprocal-time units, so sweeping the
width at fixed amplitudes changes the pulse areas exactly as a longer laser
pulse would.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .design import TargetSpec
from .model import (FieldSet, StateVector, SystemSpec, pump_envelope,
                    stokes_envelope)

__all__ = [
    "PropagationError",
    "PropagationConfig",
    "Trajectory",
    "propagate",
    "populations",
]

# Both envelopes must be below this fraction of their peaks at the window
# edges, or the run starts/ends mid-pulse.
EDGE_ENVELOPE_TOL = 1e-6

DEFAULT_MAX_STEP = 0.25  # units of the pulse width

# Most output samples one run may ask for: the window over the stride.  The
# built-in scenarios take 900; a million samples of a 15-level state already
# hold 240 MB of amplitudes.
MAX_SAMPLES = 1_000_000


class PropagationError(RuntimeError):
    """The integrator failed or missed its accuracy contract."""


@dataclass(frozen=True)
class PropagationConfig:
    """Integration window and accuracy knobs, in units of the pulse width."""

    t_start: float = -4.0
    t_end: float = 5.0
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: float | None = None
    output_stride: float = 0.01

    def __post_init__(self):
        settings = [self.t_start, self.t_end, self.rel_tol, self.abs_tol,
                    self.output_stride]
        if self.max_step is not None:
            settings.append(self.max_step)
        if not np.isfinite(settings).all():
            raise ValueError("propagation settings must be finite")
        if not self.t_start < self.t_end:
            raise ValueError("t_start must precede t_end")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        # solve_ivp raises any smaller rel_tol to this floor, with a warning
        floor = 100 * np.finfo(float).eps
        if self.rel_tol < floor:
            raise ValueError(f"rel_tol must be at least {floor:.3g} "
                             "(100 machine epsilons, the integrator's floor)")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.output_stride <= 0:
            raise ValueError("output_stride must be positive")
        if (self.t_end - self.t_start) / self.output_stride > MAX_SAMPLES:
            raise ValueError(f"output_stride asks for more than {MAX_SAMPLES:,} "
                             "samples across the window")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of one propagation.

    ``states`` holds one row per sample; ``populations`` its squared moduli.
    ``p_x`` is the total intermediate-state population, ``p_f`` the population
    of the target direction and ``p_y`` the remaining degenerate-manifold
    population (for a basis target: everything degenerate except the target
    state).  ``norm_error`` is the deviation of the state norm from one.
    """

    times: np.ndarray
    states: np.ndarray
    populations: np.ndarray
    p_x: np.ndarray
    p_y: np.ndarray
    p_f: np.ndarray
    norm_error: np.ndarray
    n_intermediate: int
    n_degenerate: int
    width: float
    target: TargetSpec

    @property
    def times_over_width(self) -> np.ndarray:
        return self.times / self.width

    @property
    def final_p_f(self) -> float:
        return float(self.p_f[-1])

    @property
    def max_p_x(self) -> float:
        return float(self.p_x.max())

    @property
    def max_p_y(self) -> float:
        return float(self.p_y.max())

    @property
    def max_norm_error(self) -> float:
        return float(self.norm_error.max())


def _split_populations(states: np.ndarray, n: int, m: int,
                       target: TargetSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    y = states[:, 1 + n:]
    # an elementwise product, not ``y @ c``: OpenBLAS threads that tall
    # matrix-vector product, which then takes 6 ms instead of 0.2 ms and
    # leaves a worker thread spinning for about 0.1 s after it returns
    p_f = np.abs((y * target.coefficients.conj()).sum(axis=1)) ** 2
    p_y = np.maximum((np.abs(y) ** 2).sum(axis=1) - p_f, 0.0)
    p_x = (np.abs(states[:, 1:1 + n]) ** 2).sum(axis=1)
    return p_x, p_y, p_f


def _sample_times(config: PropagationConfig, width: float) -> np.ndarray:
    """The output grid in time units; raises unless every sample is finite.

    A finite window times a huge finite width can overflow; the integrator
    would then step on NaN times without end.
    """
    span = config.t_end - config.t_start
    n_steps = max(1, int(np.ceil(span / config.output_stride - 1e-9)))
    with np.errstate(over="ignore"):
        times = width * np.linspace(config.t_start, config.t_end, n_steps + 1)
    if not np.isfinite(times).all():
        raise ValueError(f"sample times overflow: the window [{config.t_start:g}, "
                         f"{config.t_end:g}] times the pulse width {width:g} "
                         "is not finite")
    return times


def _make_rhs(fields: FieldSet):
    h_pump, h_stokes = fields._blocks
    dim = h_pump.shape[0]
    # the (dim, 2, dim) stack of -1j*H_pump and -1j*H_stokes, viewed as one
    # (2*dim, dim) matrix: row pair (2i, 2i+1) holds row i of both blocks
    blocks = np.stack((-1j * h_pump, -1j * h_stokes), axis=1).reshape(2 * dim, dim)
    # complex, so that the contraction casts nothing
    envelopes = np.zeros(2, dtype=complex)
    width = fields.width

    def rhs(t, psi):
        # numpy's exp, not math.exp: the two differ in the last bit for
        # about 5% of arguments, and then the trajectory CSV bytes change
        envelopes[0] = pump_envelope(t, width)
        envelopes[1] = stokes_envelope(t, width)
        return (blocks @ psi).reshape(dim, 2) @ envelopes

    return rhs


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first integration.

    Importing scipy costs about half a second, so design, verification and
    null-space work, which never integrate, do not load it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


def propagate(system: SystemSpec, fields: FieldSet, initial: StateVector,
              config: PropagationConfig | None = None,
              target: TargetSpec | None = None) -> Trajectory:
    """Integrate the Schrodinger equation across the pulse window.

    Parameters
    ----------
    initial : StateVector
        Starting state; must be normalized.  Propagation starts at
        ``config.t_start`` (in width units) regardless of its ``time`` stamp.
    target : TargetSpec, optional
        Direction used for the population split; defaults to the last
        degenerate basis state.

    Returns a :class:`Trajectory` sampled on an even grid no coarser than
    ``config.output_stride``.  Raises :class:`PropagationError` when the
    integrator fails or norm conservation degrades beyond tolerance, and
    ValueError for bad input, such as a window whose sample times overflow
    at this width.
    """
    if config is None:
        config = PropagationConfig()
    system.check_fields(fields)
    target = TargetSpec.resolve(target, system.n_degenerate)
    psi0 = np.asarray(initial.components, dtype=complex)
    if psi0.shape != (system.dim,):
        raise ValueError(f"initial state must have {system.dim} components")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")

    width = fields.width
    times = _sample_times(config, width)
    edge = max(pump_envelope(config.t_start * width, width),
               stokes_envelope(config.t_start * width, width),
               pump_envelope(config.t_end * width, width),
               stokes_envelope(config.t_end * width, width))
    if edge > EDGE_ENVELOPE_TOL:
        warnings.warn(
            f"pulse envelopes reach {edge:.2e} of peak at the window edges; "
            "widen the window for a clean adiabatic start",
            stacklevel=2)

    max_step = (config.max_step if config.max_step is not None
                else DEFAULT_MAX_STEP) * width
    sol = solve_ivp(_make_rhs(fields), (times[0], times[-1]), psi0,
                    method="DOP853", rtol=config.rel_tol, atol=config.abs_tol,
                    max_step=max_step, t_eval=times)
    if not sol.success:
        raise PropagationError(f"integration failed: {sol.message}")
    if not np.isfinite(sol.y).all():
        raise PropagationError("integration produced a non-finite state (norm "
                               f"{np.linalg.norm(sol.y, axis=0).max():.3e})")

    states = sol.y.T.copy()
    pops = np.abs(states) ** 2
    norm_error = np.abs(np.sqrt(pops.sum(axis=1)) - 1.0)
    norm_tol = max(1e-9, 10.0 * max(config.rel_tol, config.abs_tol))
    # written as "not within" so that a NaN state counts as drift
    if not norm_error.max() <= norm_tol:
        raise PropagationError(
            f"norm drifted by {norm_error.max():.3e} (tolerance {norm_tol:.1e}); "
            "tighten the integration tolerances")
    p_x, p_y, p_f = _split_populations(states, system.n_intermediate,
                                       system.n_degenerate, target)
    return Trajectory(times=times, states=states, populations=pops,
                      p_x=p_x, p_y=p_y, p_f=p_f, norm_error=norm_error,
                      n_intermediate=system.n_intermediate,
                      n_degenerate=system.n_degenerate,
                      width=width, target=target)


def populations(trajectory: Trajectory, target: TargetSpec,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Population split (p_x, p_y, p_f) of a trajectory for a given target.

    ``p_f`` projects onto the target direction, ``p_y`` is the degenerate
    population orthogonal to it, ``p_x`` the intermediate total.  Lets one
    trajectory be analyzed against any target after the fact.
    """
    target = TargetSpec.resolve(target, trajectory.n_degenerate)
    return _split_populations(trajectory.states, trajectory.n_intermediate,
                              trajectory.n_degenerate, target)
