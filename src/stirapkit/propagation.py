"""Time-dependent Schrodinger propagation over the pulse window.

Integrates ``i dpsi/dt = H(t) psi`` (hbar = 1) on the complex state with
DOP853, the adaptive eighth-order Runge-Kutta method of Hairer, Norsett and
Wanner with its seventh-order dense output (Solving ODEs I, II.4-II.6).  The
step loop is this module's own: it does the floating-point operations of
``scipy.integrate.solve_ivp(method="DOP853")`` in the same order, so samples
and RHS counts equal scipy's bit for bit (``TestDop853Oracle`` in
``tests/test_propagation.py`` pins that), and scipy supplies only the Butcher
tableau.  Dropping scipy's per-step wrappers and objects took the CPU time
of fig2-fig5's propagation from 0.89 s to 0.61 s (medians of 20 alternating
rounds; 2-CPU Xeon, Python 3.11, numpy 2.4.6, scipy 1.17.1).

The dense output that gives the samples is recorded per step but evaluated
per block: a step that holds samples keeps its seventh-order polynomial (its
start, length, starting state and seven coefficient rows), and one Horner
pass evaluates the polynomials of up to 128 such steps over all of their
samples at once.  Each sample still gets scipy's operations in scipy's order.
The block is a fixed buffer, so memory does not grow with the run's length.
That took perfbench's ``reproduce`` wall_rel from 59.9 to 54.7 ref (medians
of 10 alternating pairs, same host and versions).

The right-hand side reuses the factorization of the Hamiltonian into two
constant Hermitian blocks times scalar Gaussian envelopes: the field set's
coupling stack, premultiplied by -i, is laid out once per run as one matrix,
so each evaluation is one matvec with it and one two-term contraction with
the two envelope values.  Both are ``ndarray.dot`` calls, not ``@``: ``@`` is
numpy's matmul generalized ufunc, whose dispatch costs about 0.4 us more per
call than ``dot`` reaching the same BLAS routine, with the same bits.  That
took one evaluation from 3.6 to 2.0 us at d = 15 (timeit, best of 5).

Window, stride and step limits are expressed in units of the pulse width;
peak Rabi amplitudes keep their own reciprocal-time units, so sweeping the
width at fixed amplitudes changes the pulse areas exactly as a longer laser
pulse would.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .design import TargetSpec
from .model import FieldSet, StateVector, SystemSpec, as_float, envelope_pair

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

# Farthest window edge, in pulse widths.  The envelopes square the time over
# the width, and a Python float's square overflows past about 1.3e154; both
# envelopes are exactly zero from about 28 widths out.
_MAX_WINDOW_EDGE = 1e150


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
        # stored as floats, so that a setting of -4 hashes like one of -4.0
        for setting in dataclasses.fields(self):
            value = getattr(self, setting.name)
            if value is None:
                continue
            value = as_float(value)
            if not math.isfinite(value):
                raise ValueError("propagation settings must be finite")
            object.__setattr__(self, setting.name, value)
        if not self.t_start < self.t_end:
            raise ValueError("t_start must precede t_end")
        if max(-self.t_start, self.t_end) > _MAX_WINDOW_EDGE:
            raise ValueError(f"the window must lie within ±{_MAX_WINDOW_EDGE:g} "
                             "pulse widths of the pulses")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        # scipy's DOP853 lifts any smaller rel_tol to this floor, with a
        # warning; solve_ivp below keeps its arithmetic, so it keeps the floor
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
    """``-i H(t) psi``, derived from ``fields.coupling_stack``.

    Each call is two ``ndarray.dot`` calls, about 2.0 us at d = 15, against
    3.6 us for the same two products written with ``@`` (see the module
    docstring); the products, and so the states, are bit for bit the same.
    """
    stack = fields.coupling_stack
    dim = stack.shape[-1]
    # -1j times the (2, dim, dim) stack as (dim, 2, dim), viewed as one
    # (2*dim, dim) matrix: row pair (2i, 2i+1) holds row i of both blocks
    blocks = (-1j * stack).swapaxes(0, 1).reshape(2 * dim, dim)
    # complex, so that the contraction casts nothing
    envelopes = np.zeros(2, dtype=complex)
    # the matvec's output buffer, and its (dim, 2) view of row pairs
    products = np.empty(2 * dim, dtype=complex)
    pairs = products.reshape(dim, 2)
    width = fields.width

    def rhs(t, psi):
        envelopes[0], envelopes[1] = envelope_pair(t, width)
        blocks.dot(psi, out=products)
        # a fresh array: the step loop keeps f from one step to the next
        return pairs.dot(envelopes)

    return rhs


@dataclass(frozen=True)
class _Solution:
    """The fields of scipy's ``OdeResult`` that callers of the seam read."""

    success: bool
    message: str
    y: np.ndarray
    nfev: int


@dataclass(frozen=True)
class _Tableau:
    """DOP853's coefficients, cast to complex once so no product casts them."""

    stages: list        # (row of A, node of C) for stages 1..11
    b: np.ndarray
    e3: np.ndarray
    e5: np.ndarray
    extra: list         # (row of A, node of C) for the dense-output stages
    d: np.ndarray
    error_exponent: float


@cache
def _dop853() -> _Tableau:
    """The tableau of ``scipy.integrate.DOP853``, read on the first integration.

    Importing scipy costs about half a second, so design, verification and
    null-space work, which never integrate, do not load it.  Only the class's
    public coefficient attributes are read; no table is copied.
    """
    from scipy.integrate import DOP853 as method

    def row(a, s):
        return a[:s].astype(complex)

    n = method.n_stages
    return _Tableau(
        stages=[(row(method.A[s], s), float(method.C[s])) for s in range(1, n)],
        b=method.B.astype(complex),
        e3=method.E3.astype(complex),
        e5=method.E5.astype(complex),
        extra=[(row(a, s), float(c)) for s, (a, c) in enumerate(
            zip(method.A_EXTRA, method.C_EXTRA), start=n + 1)],
        d=method.D.astype(complex),
        error_exponent=-1 / (method.error_estimator_order + 1))


# Step-size control (Hairer, Norsett & Wanner, Solving ODEs I, II.4): the
# safety factor and the bounds on one change of the step, as scipy sets them.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
FINISHED = "The solver successfully reached the end of the integration interval."


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, max_step, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (II.4), for error order 7."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    span = t_bound - t0
    h0 = min(h0, span)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span, max_step)


def _squared_norm(re: np.ndarray, im: np.ndarray) -> float:
    """``np.linalg.norm(re + 1j*im) ** 2``, computed as numpy does."""
    return math.sqrt(re.dot(re) + im.dot(im)) ** 2


# Sampled steps whose dense output is held for one Horner pass: at most this
# many steps' polynomials are kept at once, whatever the run's length.
_DENSE_BLOCK = 128


class _DenseBlock:
    """DOP853's dense output over up to ``_DENSE_BLOCK`` steps, evaluated together.

    Each entry keeps what scipy's ``Dop853DenseOutput`` keeps of one step:
    its start ``t_old``, length ``h``, starting state ``y_old`` and seven
    coefficient rows ``F``, plus how many samples the step holds.  The
    pending samples are ``times[first:end]``, written into ``out[first:end]``.
    """

    def __init__(self, out: np.ndarray, times: np.ndarray, n_rows: int):
        n = out.shape[1]
        self.out, self.times = out, times
        self.F = np.empty((n_rows, _DENSE_BLOCK, n), dtype=complex)
        self.y_old = np.empty((_DENSE_BLOCK, n), dtype=complex)
        self.t_old = np.empty(_DENSE_BLOCK)
        self.h = np.empty(_DENSE_BLOCK)
        self.counts = np.empty(_DENSE_BLOCK, dtype=np.intp)
        self.size = 0
        self.first = self.end = 0

    def record(self, t_old: float, h: float, y_old: np.ndarray,
               count: int) -> np.ndarray:
        """Add a step holding the next ``count`` samples; returns its ``F`` rows.

        A full block is evaluated first.  The caller fills the rows.
        """
        if self.size == _DENSE_BLOCK:
            self.flush()
        j = self.size
        self.y_old[j] = y_old
        self.t_old[j] = t_old
        self.h[j] = h
        self.counts[j] = count
        self.size = j + 1
        self.end += count
        return self.F[:, j]

    def flush(self) -> None:
        """Write the pending samples into ``out`` and empty the block.

        Every sample gets the operations of scipy's ``Dop853DenseOutput`` in
        the same order, on the rows of its own step gathered first, so the
        same bits.
        """
        k = self.size
        ys = self.out[self.first:self.end]
        step = np.repeat(np.arange(k), self.counts[:k])
        x = ((self.times[self.first:self.end] - self.t_old[step])
             / self.h[step])[:, None]
        one_minus_x = 1 - x
        ys.fill(0)
        for i, F_i in enumerate(self.F[::-1, :k]):
            ys += F_i[step]
            ys *= x if i % 2 == 0 else one_minus_x
        ys += self.y_old[step]
        self.size = 0
        self.first = self.end


def solve_ivp(fun, t_span, y0, *, method, rtol, atol, max_step=math.inf,
              t_eval):
    """DOP853 from ``t_span[0]`` forward to ``t_span[1]``, sampled at ``t_eval``.

    The step loop of ``scipy.integrate.solve_ivp(method="DOP853",
    t_eval=...)`` without its per-step wrappers and objects: the same
    starting step, stage sums, error norm and step-size rules, and the same
    dense-output stages and Horner evaluation, each done with the same
    floating-point operations in the same order.  Sums are formed in place,
    and a sum or product with its operands swapped is the same IEEE result.
    So ``y`` and ``nfev`` equal scipy's bit for bit;
    ``tests/test_propagation.py::TestDop853Oracle`` pins that.

    A step that holds samples runs the three dense-output stages at once, as
    scipy does, so the RHS calls come in scipy's order; its polynomial is
    only recorded, in a :class:`_DenseBlock` of ``_DENSE_BLOCK`` steps.  A
    full block, the end of the run and a failure each evaluate the pending
    polynomials in one Horner pass over all of their samples.  That saves
    about 20 numpy calls per sampled step.  The block holds
    ``8 * _DENSE_BLOCK`` state-sized rows however long the run is, and a
    pass's temporaries are the size of its own samples' rows.

    This is the seam that the benchmark's tracer and the tests replace.
    ``fun(t, y)`` is called once per right-hand-side evaluation and must
    return a complex array shaped like ``y0``; ``t_eval`` must increase
    strictly and lie within ``t_span``, or ValueError is raised with scipy's
    message; ``method`` must be ``"DOP853"``.  The result has ``success``, ``message``, ``y`` shaped
    ``(len(y0), len(t_eval))`` (only the samples reached, when the run
    failed) and ``nfev``.
    """
    if method != "DOP853":
        raise ValueError(f"only DOP853 is implemented, not {method!r}")
    t, t_bound = map(float, t_span)
    if not t < t_bound:
        raise ValueError("integration runs forward only")
    samples = np.asarray(t_eval, dtype=float)
    if samples.ndim != 1:
        raise ValueError("`t_eval` must be 1-dimensional.")
    # written as "not within" so that a NaN sample is out of the span too
    if not ((samples >= t) & (samples <= t_bound)).all():
        raise ValueError("Values in `t_eval` are not within `t_span`.")
    if not (np.diff(samples) > 0).all():
        raise ValueError("Values in `t_eval` are not properly sorted.")
    tab = _dop853()
    rtol, atol = float(rtol), float(atol)
    y = np.asarray(y0, dtype=complex)
    n = y.size
    sample_times = samples.tolist()
    out = np.empty((len(sample_times), n), dtype=complex)
    # rows 0..12 hold the stages of one step, rows 13..15 the dense-output ones
    K_ext = np.empty((len(tab.stages) + 2 + len(tab.extra), n), dtype=complex)
    K = K_ext[:len(tab.stages) + 2]
    K_T, K_b = K.T, K[:-1].T
    stages = [(K[:a.size].T, a, c) for a, c in tab.stages]
    extra = [(K_ext[:a.size].T, a, c) for a, c in tab.extra]
    # the error estimates' buffer and its float views
    err = np.empty(n, dtype=complex)
    err_re, err_im = err.real, err.imag
    # the step as a 0-d complex array: the cheapest scalar operand for numpy,
    # and the very value h + 0j that numpy multiplies by for a float h
    h_array = np.zeros((), dtype=complex)

    # sampled steps whose dense output is not evaluated yet
    block = _DenseBlock(out, samples, 3 + len(tab.d))

    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, max_step, rtol, atol)
    nfev = 2
    abs_y = np.abs(y)
    i_sample = 0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                block.flush()
                return _Solution(False, TOO_SMALL_STEP, out[:i_sample].T, nfev)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            h_array[()] = h

            K[0] = f
            for s, (K_s, a, c) in enumerate(stages, start=1):
                y_s = K_s.dot(a)
                y_s *= h_array
                y_s += y
                K[s] = fun(t + c * h, y_s)
            y_new = K_b.dot(tab.b)
            y_new *= h_array
            y_new += y
            f_new = fun(t + h, y_new)
            K[-1] = f_new
            nfev += len(stages) + 1

            abs_y_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_y_new)
            scale *= rtol
            scale += atol
            K_T.dot(tab.e5, out=err)
            err /= scale
            err5 = _squared_norm(err_re, err_im)
            K_T.dot(tab.e3, out=err)
            err /= scale
            err3 = _squared_norm(err_re, err_im)
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** tab.error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** tab.error_exponent)
            rejected = True

        t_old, y_old = t, y
        t, y, f, abs_y = t_new, y_new, f_new, abs_y_new
        i_end = i_sample
        while i_end < len(sample_times) and sample_times[i_end] <= t:
            i_end += 1
        if i_end == i_sample:
            continue

        # dense output over the step: three more stages, then its Horner
        # coefficients, recorded for the block's evaluation
        for K_s, a, c in extra:
            y_s = K_s.dot(a)
            y_s *= h_array
            y_s += y_old
            K_ext[a.size] = fun(t_old + c * h, y_s)
        nfev += len(extra)
        F = block.record(t_old, h, y_old, i_end - i_sample)
        delta_y = y - y_old
        F[0] = delta_y
        F[1] = h * K_ext[0] - delta_y
        F[2] = 2 * delta_y - h * (f + K_ext[0])
        F[3:] = h * tab.d.dot(K_ext)
        i_sample = i_end
    block.flush()
    return _Solution(True, FINISHED, out.T, nfev)


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
    edge = max(*envelope_pair(config.t_start * width, width),
               *envelope_pair(config.t_end * width, width))
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
