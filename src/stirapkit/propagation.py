"""Time-dependent Schrodinger propagation over the pulse window.

Integrates ``i dpsi/dt = H(t) psi`` (hbar = 1) on the complex state with
DOP853, the adaptive eighth-order Runge-Kutta method of Hairer, Norsett and
Wanner with its seventh-order dense output (Solving ODEs I, II.4-II.6).  The
step loop and the Butcher tableau are this module's own, and no runtime path
imports scipy.  The loop does the floating-point operations of
``scipy.integrate.solve_ivp(method="DOP853")`` in the same order, on the same
coefficients, so samples and RHS counts equal scipy's bit for bit;
``TestDop853Oracle`` in ``tests/test_propagation.py`` compares the tableau and
the results with the installed scipy.

The dense output that gives the samples is recorded per step but formed
and evaluated per block: a step that holds samples keeps its 16 stage rows
and its two end states, and one flush forms the seventh-order polynomials of
up to 128 such steps and evaluates them in one Horner pass over all of their
samples, with scipy's operations in scipy's order.  The block is a fixed
buffer, so memory does not grow with the run's length.

The right-hand side reuses the factorization of the Hamiltonian into two
constant Hermitian blocks times scalar Gaussian envelopes: the field set's
coupling stack, premultiplied by -i, is laid out once per run as one matrix,
so each evaluation is one matvec with it and one two-term contraction with
the two envelope values.  Both are ``ndarray.dot`` calls, not ``@``: ``@`` is
numpy's matmul generalized ufunc, whose dispatch costs about 0.4 us more per
call than ``dot`` reaching the same BLAS routine, with the same bits.

Any callable ``fun(t, y)`` is called once per stage, through one stage
routine in ``solve_ivp``.  The package's own right-hand side, a
``_LinearRhs``, is evaluated in three places, which must stay alike.
``_LinearRhs.__call__`` gives f at the start and the starting step's probe
(and every value, once the object is wrapped).  The stage routine's
batched branch runs a trial step's stages by their parts: once a step has
its size h it knows every node t + c*h, so one ``np.exp`` call gives the
envelopes of all of them (:func:`~stirapkit.model.envelope_pairs`), and
each stage writes its contraction straight into its row of the stage
matrix.  ``_DenseBlock._linear_stages`` runs the dense-output stages per
block, each stage of all of the block's steps as stacked ``np.matmul``
calls whose items are a single step's products.  In all three the bits and
the RHS count are those of one call per stage.

The error norm of a trial step takes the squared sums of both error
estimates from one stacked ``np.matmul`` whose items are the ``ddot``
calls of ``np.linalg.norm``.

Window, stride and step limits are expressed in units of the pulse width;
peak Rabi amplitudes keep their own reciprocal-time units, so sweeping the
width at fixed amplitudes changes the pulse areas exactly as a longer laser
pulse would.
"""

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .design import TargetSpec
from .model import (FieldSet, StateVector, SystemSpec, as_float,
                    envelope_pair, envelope_pairs)

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
# hold 240 MB of amplitudes.  The step cap, explicit or the default, may ask
# for no more steps.
MAX_SAMPLES = 1_000_000

# Farthest window edge, in pulse widths.  The envelopes square the time over
# the width, and a Python float's square overflows past about 1.3e154; both
# envelopes are exactly zero from about 28 widths out.
_MAX_WINDOW_EDGE = 1e150


class PropagationError(RuntimeError):
    """The integrator failed or missed its accuracy contract."""


@dataclass(frozen=True)
class PropagationConfig:
    """Integration window and accuracy knobs, in units of the pulse width.

    ``max_step`` None means the default cap, ``DEFAULT_MAX_STEP``; one
    step-count rule judges the cap either way.
    """

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
        # One rule for the cap, written out or the default, checked before
        # any step is taken: a cap far below the window would otherwise run
        # for hours.  It is exempt only where ten float spacings at t_start
        # exceed twice the cap.  The integrator's smallest step is ten
        # spacings at t, and the spacing at t_start * width is at least half
        # the width times the spacing at t_start; so at any width the step
        # outgrows the cap, and the run fails by its second trial step.
        cap = self._step_cap
        if ((self.t_end - self.t_start) / cap > MAX_SAMPLES
                and not 10 * math.ulp(self.t_start) > 2 * cap):
            if self.max_step is not None:
                raise ValueError(f"max_step asks for more than {MAX_SAMPLES:,} "
                                 "steps across the window")
            raise ValueError(f"the window [{self.t_start:g}, {self.t_end:g}] "
                             f"needs more than {MAX_SAMPLES:,} steps of "
                             f"{cap:g} widths")
        if self.output_stride <= 0:
            raise ValueError("output_stride must be positive")
        if (self.t_end - self.t_start) / self.output_stride > MAX_SAMPLES:
            raise ValueError(f"output_stride asks for more than {MAX_SAMPLES:,} "
                             "samples across the window")

    @property
    def _step_cap(self) -> float:
        """Largest step, in widths: ``max_step``, or else the default."""
        return DEFAULT_MAX_STEP if self.max_step is None else self.max_step


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
    """The output grid in time units; raises unless it is finite and increasing.

    A finite window times a huge finite width can overflow; the integrator
    would then step on NaN times without end.  Times a tiny width, such as
    5e-324, neighbouring samples round to the same float; times a subnormal
    one, such as 1e-320, they stay apart but round to multiples of 5e-324,
    so the grid is no longer even.
    """
    span = config.t_end - config.t_start
    n_steps = max(1, int(np.ceil(span / config.output_stride - 1e-9)))
    with np.errstate(over="ignore"):
        times = width * np.linspace(config.t_start, config.t_end, n_steps + 1)
    if not np.isfinite(times).all():
        raise ValueError(f"sample times overflow: the window [{config.t_start:g}, "
                         f"{config.t_end:g}] times the pulse width {width:g} "
                         "is not finite")
    if not (np.diff(times) > 0).all():
        raise ValueError("sample times are not strictly increasing: the "
                         f"pulse width {width:g} is too small for the "
                         f"output stride {config.output_stride:g}")
    tiny = np.finfo(float).tiny
    if ((times != 0) & (np.abs(times) < tiny)).any():
        raise ValueError(f"sample times fall below {tiny:g}, the smallest "
                         f"normal float: the pulse width {width:g} is too "
                         f"small for the output stride {config.output_stride:g}")
    return times


class _LinearRhs:
    """``-i H(t) psi``, derived from a field set's ``coupling_stack``.

    ``blocks`` is -1j times the (2, d, d) stack as (d, 2, d), viewed as one
    (2d, d) matrix: row pair (2i, 2i+1) holds row i of both blocks.
    ``blocks.dot(psi, out=products)`` fills the matvec's buffer, and
    ``pairs``, its (d, 2) view of row pairs, contracts with a complex
    envelope pair into the result.  Both are ``ndarray.dot`` calls, not
    ``@`` (see the module docstring); the products, and so the states, are
    bit for bit the same.  Calling the object does that for one time and
    returns a fresh array; :func:`solve_ivp` reads the parts instead.
    """

    __slots__ = ("blocks", "products", "pairs", "width", "_envelopes",
                 "_envelopes_re")

    def __init__(self, fields: FieldSet):
        stack = fields.coupling_stack
        dim = stack.shape[-1]
        self.blocks = (-1j * stack).swapaxes(0, 1).reshape(2 * dim, dim)
        self.products = np.empty(2 * dim, dtype=complex)
        self.pairs = self.products.reshape(dim, 2)
        self.width = fields.width
        # complex, so that the contraction casts nothing; the pair is
        # written through the float view, and the imaginary parts stay +0.0
        self._envelopes = np.zeros(2, dtype=complex)
        self._envelopes_re = self._envelopes.real

    def __call__(self, t, psi):
        envelopes_re = self._envelopes_re
        envelopes_re[0], envelopes_re[1] = envelope_pair(t, self.width)
        self.blocks.dot(psi, out=self.products)
        # a fresh array, which the caller may keep
        return self.pairs.dot(self._envelopes)


@dataclass(frozen=True)
class _Solution:
    """The fields of scipy's ``OdeResult`` that callers of the seam read."""

    success: bool
    message: str
    y: np.ndarray
    nfev: int


# DOP853's Butcher tableau (Hairer, Norsett & Wanner, Solving ODEs I,
# II.5-II.6), as scipy.integrate.DOP853 holds it.  Each entry is the repr()
# of scipy's double, so it parses to the same bits;
# TestDop853Oracle.test_tableau_equals_scipys compares them.  For stage
# s = 1..11, A[s - 1] weights stages 0..s-1, zeros included, and C[s - 1] is
# its node.  B weights stages 0..11 into the new state; E5 and E3 weight
# those and f at the new state into the two error estimates.  The dense
# output adds stages 13..15 (A_EXTRA, C_EXTRA), and D weights all 16 stages
# into its four highest coefficients.  The weights are complex, so that no
# product casts them; the nodes are floats.
A = [np.array(row, dtype=complex) for row in (
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
     0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
     -0.868219346841726, 27.59209969944671, 20.154067550477894,
     -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
     -0.590290826836843, 21.230051448181193, 15.279233632882423,
     -33.28821096898486, -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
     1.0914373489967295, -8.149787010746927, -18.52006565999696,
     22.739487099350505, 2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725,
     -2.0008720582248625, -17.9589318631188, 27.94888452941996,
     -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636],
)]
C = (0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
], dtype=complex)
E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
], dtype=complex)
E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
], dtype=complex)
A_EXTRA = [np.array(row, dtype=complex) for row in (
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
     0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)]
C_EXTRA = (0.1, 0.2, 0.7777777777777778)
D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
], dtype=complex)
ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order 7 + 1)

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


# Sampled steps whose dense output is held for one Horner pass: at most this
# many steps' polynomials are kept at once, whatever the run's length.
_DENSE_BLOCK = 128


class _DenseBlock:
    """DOP853's dense output over up to ``_DENSE_BLOCK`` steps, evaluated together.

    Each entry keeps what scipy's ``Dop853DenseOutput`` is built from for
    one step: its start ``t_old``, length ``h``, starting state ``y_old``,
    end state ``y`` and 16 stage rows ``K``, plus how many samples the step
    holds.  The pending samples are ``times[first:end]``, written into
    ``out[first:end]``.  Given a ``_LinearRhs``, the block runs the three
    dense-output stages itself, for all pending steps at once (rows 13..15
    of ``K``); otherwise the step loop has run them before it records.
    """

    def __init__(self, out: np.ndarray, times: np.ndarray, n_stages: int,
                 linear: _LinearRhs | None):
        n = out.shape[1]
        self.out, self.times, self.linear = out, times, linear
        self.K = np.empty((_DENSE_BLOCK, n_stages, n), dtype=complex)
        self.y_old = np.empty((_DENSE_BLOCK, n), dtype=complex)
        self.y = np.empty((_DENSE_BLOCK, n), dtype=complex)
        self.t_old = np.empty(_DENSE_BLOCK)
        self.h = np.empty(_DENSE_BLOCK)
        self.counts = np.empty(_DENSE_BLOCK, dtype=np.intp)
        # the dense-output stages' envelope pairs, complex so that the
        # contraction casts nothing; only the real parts are written, and
        # the imaginary parts stay +0.0
        self.envelopes = np.zeros((_DENSE_BLOCK, len(A_EXTRA), 2),
                                  dtype=complex)
        self.envelopes_re = self.envelopes.real
        self.size = 0
        self.first = self.end = 0

    def record(self, t_old: float, h: float, y_old: np.ndarray,
               y: np.ndarray, K: np.ndarray, count: int) -> int:
        """Add a step holding the next ``count`` samples; copies its rows.

        A full block is evaluated first.  Returns the step's three
        dense-output RHS evaluations: a ``_LinearRhs``'s envelopes are taken
        here, in one ``np.exp`` call, and :meth:`flush` runs its stages.
        """
        if self.size == _DENSE_BLOCK:
            self.flush()
        j = self.size
        self.K[j] = K
        self.y_old[j] = y_old
        self.y[j] = y
        self.t_old[j] = t_old
        self.h[j] = h
        self.counts[j] = count
        self.size = j + 1
        self.end += count
        if self.linear is not None:
            self.envelopes_re[j] = envelope_pairs(
                [t_old + c * h for c in C_EXTRA], self.linear.width)
        return len(A_EXTRA)

    def _linear_stages(self, k: int) -> None:
        """Fill K rows 13..15 of the first k entries, stage by stage.

        Each stage forms the entries' input states with scipy's operations,
        the start plus h times the weighted K rows, and evaluates them into
        its K row.  Each of its three products is one stacked ``np.matmul``
        whose items are the matrix-vector products of a single step: the
        stage sum ``K[:s].T.dot(a)``, ``blocks.dot(y)`` and the contraction
        ``pairs.dot(envelopes)``, with the same bits.  (``Y @ blocks.T``
        would be one matrix-matrix product, whose bits differ.)
        """
        K, y_old = self.K[:k], self.y_old[:k]
        # the very value h + 0j that numpy multiplies by for a float h
        h = self.h[:k, None].astype(complex)
        inputs = np.empty_like(y_old)
        blocks, pairs = self.linear.blocks, self.linear.pairs
        for i, a in enumerate(A_EXTRA):
            np.matmul(a, K[:, :a.size], inputs)
            inputs *= h
            inputs += y_old
            products = np.matmul(blocks, inputs[:, :, None])
            np.matmul(products.reshape(k, *pairs.shape),
                      self.envelopes[:k, i, :, None], K[:, a.size, :, None])

    def flush(self) -> None:
        """Write the pending samples into ``out`` and empty the block.

        A ``_LinearRhs``'s dense-output stages run first, for every pending
        step at once.  Then the seven coefficient rows ``F`` of every
        pending step are formed at once, and one Horner pass evaluates them
        over all of the samples, each sample on the rows of its own step
        gathered first.  Both do the operations of scipy's
        ``Dop853DenseOutput`` in the same order, so every sample has the
        same bits.
        """
        k = self.size
        if self.linear is not None:
            self._linear_stages(k)
        h, K, y_old = self.h[:k, None], self.K[:k], self.y_old[:k]
        F = np.empty((3 + len(D), k, K.shape[-1]), dtype=complex)
        delta_y = np.subtract(self.y[:k], y_old, out=F[0])
        # K row 0 is f at the step's start, row len(A) + 1 f at its end
        F[1] = h * K[:, 0] - delta_y
        F[2] = 2 * delta_y - h * (K[:, len(A) + 1] + K[:, 0])
        # each item of the stack is the (4, 16) by (16, n) product D.dot(K)
        F[3:] = (h[:, None] * np.matmul(D, K)).swapaxes(0, 1)

        ys = self.out[self.first:self.end]
        step = np.repeat(np.arange(k), self.counts[:k])
        x = ((self.times[self.first:self.end] - self.t_old[step])
             / self.h[step])[:, None]
        one_minus_x = 1 - x
        ys.fill(0)
        for i, F_i in enumerate(F[::-1]):
            ys += F_i[step]
            ys *= x if i % 2 == 0 else one_minus_x
        ys += y_old[step]
        self.size = 0
        self.first = self.end


@np.errstate(over="ignore", invalid="ignore")
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

    A step that holds samples is recorded in a :class:`_DenseBlock` of
    ``_DENSE_BLOCK`` steps, which copies its 16 K rows and end states; the
    loop forms no polynomial coefficient.  A full block, the end of the run
    and a failure each form the pending steps' coefficients at once and
    evaluate them in one Horner pass over all of their samples.  For a
    ``_LinearRhs`` the flush also runs the three dense-output stages of all
    pending steps first, so the loop spends on a sampled step only its row
    copies and one ``np.exp`` call, where the three stages took 15 numpy
    calls.  A plain callable's three stages run in the loop before the step
    is recorded, so its calls come in scipy's order.  The block holds
    ``18 * _DENSE_BLOCK`` state-sized rows however long the run is; a
    flush's temporaries are three rows per pending step for the stages,
    seven coefficient rows per pending step and the size of its own
    samples' rows.

    The first two right-hand-side evaluations (f at the start and the
    starting step's probe) call ``fun``.  After them, a plain callable's
    evaluations and a ``_LinearRhs``'s trial-step stages go through one
    stage routine, given a stage table and the step's start and size h; a
    ``_LinearRhs``'s dense-output stages run in ``_DenseBlock``.  So a
    ``_LinearRhs`` is evaluated in three places, which must stay alike:
    ``_LinearRhs.__call__``, the stage routine's batched branch and
    ``_DenseBlock._linear_stages``.  Each entry forms its input state, the
    start plus h times its weighted K rows, in its own row of one buffer
    made once per call, and evaluates it into its K row.  A trial step runs the 11 stages and, as a 12th entry
    with weights ``B`` and node 1.0, the new state, whose accepted value is
    copied out of its input row; a plain callable's sampled step then runs
    the 3 dense-output stages from the step's start.  The two error
    estimates go into the rows of one buffer, are divided by the scale at
    once, and their four squared sums come from one stacked ``np.matmul``.
    ``y0`` is only read, and no buffer outlives the call.
    Overflow and invalid-value warnings are off inside the loop: a trial
    step that overflows has an infinite or NaN error norm, which the step
    control rejects, and ``propagate`` fails a non-finite state.

    This is the seam that the benchmark's tracer and the tests replace.
    A plain callable ``fun(t, y)`` is called once per entry and must return
    a complex array shaped like ``y0``, which the loop copies; ``y`` is a
    buffer row that the loop writes again later, so ``fun`` must neither
    keep nor modify it.  A ``_LinearRhs``, handed over unwrapped, is
    evaluated by its parts: one ``np.exp`` call gives the envelopes of a
    trial step's nodes (the new state shares the last stage's, as
    ``C[-1] == 1``) or of a sampled step's three dense-output nodes, and
    each stage writes its contraction into its K row, the dense-output
    stages a block at a time.  Either way the RHS values, ``y`` and
    ``nfev`` are the same bits; wrapping the object, as the tracer does,
    selects the plain path.

    ``t_eval`` must increase strictly and lie within ``t_span``, or
    ValueError is raised with scipy's message; ``method`` must be
    ``"DOP853"``.  The result has ``success``, ``message``, ``y`` shaped
    ``(len(y0), len(t_eval))`` (only the samples reached, when the run
    failed) and ``nfev``; ``y`` is a fresh array.
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
    rtol, atol = float(rtol), float(atol)
    y = np.asarray(y0, dtype=complex)
    n = y.size
    sample_times = samples.tolist()
    out = np.empty((len(sample_times), n), dtype=complex)

    # K rows 0..11 hold a step's stages, row 12 f at the new state and rows
    # 13..15 the dense-output stages.  Entries 0..10 are the main stages,
    # entry 11 the new state (weights B, node 1.0) and entries 12..14 the
    # dense-output stages; each has its own input row, and each main entry
    # but the new state its own envelope row: C[-1] == 1.0, so it shares
    # stage 11's.  The dense-output entries run only for a plain callable.
    K = np.empty((len(A) + 2 + len(A_EXTRA), n), dtype=complex)
    K_T = K[:len(A) + 2].T
    K_first, K_last = K[0], K[len(A) + 1]
    inputs = np.empty((len(A) + 1 + len(A_EXTRA), n), dtype=complex)
    y_new = inputs[len(A)]
    envelopes = np.zeros((len(A), 2), dtype=complex)
    envelopes_re = envelopes.real
    # per entry: the K rows its sum reads, its weights and node, the K row
    # it fills, its input row and its envelope row (None for the
    # dense-output entries, which never take the batched path)
    envelope_rows = [*envelopes, envelopes[-1], *[None] * len(A_EXTRA)]
    entries = [(K[:a.size].T, a, c, K[a.size], y_s, e)
               for a, c, y_s, e in zip([*A, B, *A_EXTRA], (*C, 1.0, *C_EXTRA),
                                       inputs, envelope_rows, strict=True)]
    main, dense = entries[:len(A) + 1], entries[len(A) + 1:]
    linear = fun if isinstance(fun, _LinearRhs) else None
    if linear is not None:
        blocks, products, pairs = linear.blocks, linear.products, linear.pairs
        width = linear.width
    # the step as a 0-d complex array: the cheapest scalar operand for numpy,
    # and the very value h + 0j that numpy multiplies by for a float h
    h_array = np.zeros((), dtype=complex)

    def evaluate(table, t_start, y_start, h):
        """Fill the K rows of ``table``'s entries for the step h from y_start.

        Returns the number of RHS evaluations.  This is where the loop
        parts a plain callable from a ``_LinearRhs``, which runs only the
        main table here, with its envelopes from one ``np.exp`` call.  Each
        ``dot`` takes its output buffer positionally: the ``out=`` keyword
        costs about 0.03 us more per call.
        """
        h_array[()] = h
        if linear is not None:
            envelopes_re[...] = envelope_pairs(
                [t_start + c * h for c in C], width)
        for K_s, a, c, K_row, y_s, e in table:
            K_s.dot(a, y_s)
            y_s *= h_array
            y_s += y_start
            if linear is None:
                K_row[...] = fun(t_start + c * h, y_s)
            else:
                blocks.dot(y_s, products)
                pairs.dot(e, K_row)
        return len(table)

    # the two error estimates, one per row, and the error scale; the four
    # squared sums re.re and im.im of both rows are the items of one
    # (2, 2, 1, n) by (2, 2, n, 1) product of the rows' float view, each
    # the ddot call that np.linalg.norm makes
    # (tests/test_propagation.py::TestStackedSquaredSums)
    err = np.empty((2, n), dtype=complex)
    err5_row, err3_row = err
    parts = err.view(float).reshape(2, n, 2).swapaxes(1, 2)
    parts_row, parts_column = parts[:, :, None], parts[..., None]
    sums = np.empty((2, 2, 1, 1))
    sums_flat = sums.reshape(4)
    scale = np.empty(n)

    # sampled steps whose dense output is not evaluated yet
    block = _DenseBlock(out, samples, len(K), linear)

    # f, the derivative at the current state, lives in K_last: the new
    # state's entry writes it there, and a step starts by copying it into
    # row 0, which no trial of the step writes again
    K_last[...] = fun(t, y)
    h_abs = _initial_step(fun, t, y, K_last, t_bound, max_step, rtol, atol)
    nfev = 2
    abs_y = np.abs(y)
    i_sample = 0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        K_first[...] = K_last
        rejected = False
        while True:
            if h_abs < min_step:
                block.flush()
                return _Solution(False, TOO_SMALL_STEP, out[:i_sample].T, nfev)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            nfev += evaluate(main, t, y, h)

            abs_y_new = np.abs(y_new)
            np.maximum(abs_y, abs_y_new, out=scale)
            scale *= rtol
            scale += atol
            K_T.dot(E5, err5_row)
            K_T.dot(E3, err3_row)
            err /= scale
            np.matmul(parts_row, parts_column, sums)
            re5, im5, re3, im3 = sums_flat.tolist()
            err5 = math.sqrt(re5 + im5) ** 2
            err3 = math.sqrt(re3 + im3) ** 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)

            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True

        t_old, y_old = t, y
        t, y, abs_y = t_new, y_new.copy(), abs_y_new
        i_end = i_sample
        while i_end < len(sample_times) and sample_times[i_end] <= t:
            i_end += 1
        if i_end == i_sample:
            continue

        # dense output over the step: a plain callable's three more stages
        # run now, so that its calls come in scipy's order; the block runs
        # a _LinearRhs's at its flush, and counts them either way
        if linear is None:
            evaluate(dense, t_old, y_old, h)
        nfev += block.record(t_old, h, y_old, y, K, i_end - i_sample)
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

    sol = solve_ivp(_LinearRhs(fields), (times[0], times[-1]), psi0,
                    method="DOP853", rtol=config.rel_tol, atol=config.abs_tol,
                    max_step=config._step_cap * width, t_eval=times)
    if not sol.success:
        raise PropagationError(f"integration failed: {sol.message}")
    if not np.isfinite(sol.y).all():
        raise PropagationError("integration produced a non-finite state (norm "
                               f"{np.linalg.norm(sol.y, axis=0).max():.3e})")

    states = sol.y.T.copy()
    # a finite state far off the unit sphere squares past the float range;
    # the norm check below reports that as drift, without numpy's warning
    with np.errstate(over="ignore"):
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
