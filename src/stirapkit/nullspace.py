"""Null-eigenstate structure of the dressed Hamiltonian.

A field set that satisfies the phase-matching design condition gives the
Hamiltonian a zero-eigenvalue eigenvector whose only nonzero components sit
on the initial state and the target direction.  This module constructs that
vector in closed form (:func:`analytic_lambda1`), finds it numerically
(:func:`numeric_null_space`, the SVD oracle), follows it and its degenerate
partners through time as one frame (:func:`track_null_frame`) and measures
the peak nonadiabatic coupling between two tracks on a refined grid
(:func:`converged_max_coupling`).  Every vector it hands out is a
:class:`NullVector`, a :class:`~stirapkit.model.StateVector` with a label.
:func:`cofactor_matrix` gives the signed minors of the cofactor identity; the
N = M condition ``det S != 0`` on the Stokes block is decided by
:func:`~stirapkit.design.numerical_rank`, and
:attr:`~stirapkit.design.DesignReport.det_check` reports det S itself.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .design import DesignError, TargetSpec, numerical_rank, verify_design
from .model import FieldSet, StateVector, SystemSpec, log_envelope_ratio

__all__ = [
    "NODE_TOL",
    "NullVectorLabel",
    "NullVector",
    "TrackingLost",
    "make_null_vector",
    "cofactor_matrix",
    "numeric_null_space",
    "analytic_lambda1",
    "track_null_frame",
    "analytic_pair_tracks",
    "converged_max_coupling",
    "phase_aligned_distance",
]

# Absolute node threshold on unit-norm vectors: far above eigensolver noise,
# far below any physical amplitude in the experiments.
NODE_TOL = 1e-10

# Eigenvalues within this fraction of the spectral radius count as one
# degenerate cluster during tracking.
DEGENERACY_REL_TOL = 1e-8

# Smallest step-to-step overlap a tracked vector may have before tracking is
# declared lost.
MIN_OVERLAP = 0.5

# Largest deviation from orthonormality a pair of tracks may show.
ORTHONORMAL_TOL = 1e-8

# The coupling maximum counts as converged once one grid doubling changes it
# by less than this fraction; at most MAX_DOUBLINGS doublings are tried.
COUPLING_REL_CHANGE = 0.01
MAX_DOUBLINGS = 6

# Grid points per eigen-block of tracking.  Each block costs one stacked
# eigensolve, one run of the continuation rule and a batched transport of
# the frame (more only where the transport must restart), so numpy's
# per-call overhead is paid per block; a block of 16x16 Hamiltonians is
# about 1 MB.  The eigensolve is an SVD of the (1+M) x N coupling blocks K
# when the block couples only A = {initial, degenerate} to X =
# {intermediates}: then H = [[0, K], [K^H, 0]], whose eigenvectors are
# built from K's singular vectors, at about half the cost of ``eigh``.  The
# transport's prefix products come from a blocked scan over chunks of
# SCAN_CHUNK steps (:func:`_prefix_products`): about 1,070 stacked k x k
# products for a 255-step block, where doubling over all steps makes 1,785.
# Cluster masks are formed only for the eigenvector columns the rule and the
# transport read (:func:`_clusters`), never as a (G, d, d) stack.
TRACK_BLOCK = 256
SCAN_CHUNK = 16


class TrackingLost(RuntimeError):
    """Eigenvector continuity broke down; the time grid is too coarse."""


class NullVectorLabel(enum.Enum):
    LAMBDA1 = "Lambda1"
    LAMBDA3 = "Lambda3"
    GENERIC = "Generic"


@dataclass(frozen=True)
class NullVector(StateVector):
    """A dressed eigenvector: a state vector with a label.

    ``Lambda1`` marks the transfer-carrying vector (nodes on all intermediate
    states and on every degenerate state but the last); ``Lambda3`` marks its
    degenerate partners supported on the intermediates alone (nodes on the
    initial state and the whole degenerate manifold).  Construct it as
    ``NullVector(components, time, label=...)``; the components follow the
    :class:`~stirapkit.model.StateVector` rules.  The node flags are derived
    from the components on request (:attr:`node_profile`), by the same rule
    the label was computed with.
    """

    label: NullVectorLabel = field(kw_only=True)

    @property
    def node_profile(self) -> np.ndarray:
        """Per-component node flags: ``|c| < NODE_TOL``."""
        return _node_profile(self.components)


def _node_profile(components: np.ndarray) -> np.ndarray:
    """Node flags of unit vectors stacked along the last axis."""
    return np.abs(components) < NODE_TOL


_LABELS = np.array([NullVectorLabel.GENERIC, NullVectorLabel.LAMBDA1,
                    NullVectorLabel.LAMBDA3], dtype=object)


def _labels(profiles: np.ndarray, system: SystemSpec | None) -> np.ndarray:
    """Labels of node profiles stacked along the last axis (GENERIC without a split)."""
    codes = np.zeros(profiles.shape[:-1], dtype=int)
    if system is not None and profiles.shape[-1] == system.dim:
        n = system.n_intermediate
        z0, x, y = profiles[..., 0], profiles[..., 1:1 + n], profiles[..., 1 + n:]
        x_nodes = x.all(axis=-1)
        codes[~z0 & x_nodes & y[..., :-1].all(axis=-1) & ~y[..., -1]] = 1
        codes[z0 & y.all(axis=-1) & ~x_nodes] = 2
    return _LABELS[codes]


def make_null_vector(components: np.ndarray, time: float,
                     system: SystemSpec | None = None) -> NullVector:
    """Label a unit vector (GENERIC unless the split is known)."""
    profile = _node_profile(np.asarray(components, dtype=complex))
    return NullVector(components, time, label=_labels(profile[None], system)[0])


def cofactor_matrix(s: np.ndarray) -> np.ndarray:
    """Matrix of signed complementary minors, entry by entry.

    ``A[k, j] = (-1)**(k+j) * det(s with row k and column j deleted)``, so
    ``A.T @ s = det(s) * I``; defined for singular input too.  Cost grows as
    the sixth power of the size, fine for the small blocks used here.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("cofactor matrix needs a square input")
    m = s.shape[0]
    if m == 1:
        return np.ones((1, 1), dtype=complex)
    cof = np.empty((m, m), dtype=complex)
    rows = np.arange(m)
    for k in range(m):
        sub_rows = rows[rows != k]
        for j in range(m):
            minor = s[np.ix_(sub_rows, rows[rows != j])]
            cof[k, j] = (-1) ** (k + j) * np.linalg.det(minor)
    return cof


def numeric_null_space(h: np.ndarray, tol: float | None = None,
                       system: SystemSpec | None = None,
                       time: float = 0.0) -> list[NullVector]:
    """Orthonormal basis of the near-zero eigenspace, via SVD.

    This is the brute-force counterpart of the closed-form construction and
    is kept deliberately independent of it.  ``tol`` is the absolute
    singular-value cutoff; by default it is 1e-9 times the largest singular
    value (callers with field data in hand may prefer 1e-9 times the peak
    Rabi amplitude).  ``h`` must be a nonempty, finite square matrix that
    equals its conjugate transpose to within 1e-12 times its largest entry,
    or ValueError is raised.  The basis vectors are labelled as
    :func:`make_null_vector` labels them.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if h.size == 0:
        raise ValueError("expected a nonempty matrix")
    if not np.isfinite(h).all():
        raise ValueError("expected a finite matrix")
    if not _hermitian(h):
        raise ValueError("expected a Hermitian matrix")
    _, singular, vh = np.linalg.svd(h)
    if tol is None:
        scale = singular[0] if singular[0] > 0 else 1.0
        tol = 1e-9 * scale
    basis = _fix_phase(vh[singular < tol].conj())
    labels = _labels(_node_profile(basis), system)
    return [NullVector(row, time, label=label)
            for row, label in zip(basis, labels)]


def _hermitian(h: np.ndarray) -> np.ndarray:
    """Per finite matrix (last two axes): ``max|h - h^H| <= 1e-12 * max|h|``.

    Relative to the largest entry, as numerical_rank is, so that no scale of
    h lets a non-Hermitian matrix through.
    """
    skew = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return skew <= 1e-12 * np.abs(h).max(axis=(-2, -1))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the largest component of each vector (last axis) to the positive reals."""
    pivot = np.take_along_axis(v, np.abs(v).argmax(axis=-1)[..., None], axis=-1)
    magnitude = np.abs(pivot)
    return v * np.divide(magnitude, pivot, out=np.ones_like(pivot),
                         where=magnitude > 0)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Euclidean distance between unit vectors minimized over a global phase.

    Computed from the explicitly aligned difference rather than from the
    overlap magnitude, which would lose half the available precision to
    cancellation near zero distance.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ov = np.vdot(u, v)
    if abs(ov) > 0:
        u = u * (ov / abs(ov))
    return float(np.linalg.norm(u - v))


def analytic_lambda1(system: SystemSpec, fields: FieldSet, t: float,
                     target: TargetSpec | None = None) -> NullVector:
    """Closed-form transfer-carrying null eigenvector at time t.

    Requires fields that satisfy the phase-matching condition (checked here
    through the designer's verifier) and a full-column-rank Stokes block.
    The vector is ``(z0; 0,...,0; -z0*xi(t)*c)`` with ``z0 > 0`` fixed by
    normalization and ``xi = eta * f_p/f_s`` (``model.log_envelope_ratio``):
    it rides from the initial state into the target direction as the pulse
    pair sweeps through, and ``H @ vector`` vanishes identically.

    The verifier runs once per field set and target: a passing verdict's
    ``eta`` is kept on the ``FieldSet`` instance, keyed by the target's
    coefficient bytes, and a failing one is judged afresh on every call.
    The field shapes and the rank of the Stokes block are checked on every
    call.
    """
    target = TargetSpec.resolve(target, system.n_degenerate)
    system.check_fields(fields)
    key = target.coefficients.tobytes()
    eta = fields._verified_etas.get(key)
    if eta is None:
        result = verify_design(system, fields, target)
        if not result.ok:
            raise DesignError(
                "fields do not satisfy the pump/Stokes phase-matching "
                f"condition (residual {result.residual:.3e})")
        eta = fields._verified_etas[key] = result.eta
    block = fields.peak_rabi_stokes
    if numerical_rank(block) < min(block.shape):
        raise DesignError("Stokes coupling block is rank deficient")

    # log-domain magnitude keeps the construction stable at extreme times
    u = math.log(abs(eta)) + log_envelope_ratio(t, fields.width)
    if u <= 0.0:
        xi_mag = math.exp(u)
        z0 = 1.0 / math.sqrt(1.0 + xi_mag * xi_mag)
        y_mag = xi_mag * z0
    else:
        inv = math.exp(-u)
        y_mag = 1.0 / math.sqrt(1.0 + inv * inv)
        z0 = inv * y_mag
    phase = eta / abs(eta)

    components = np.zeros(system.dim, dtype=complex)
    components[0] = z0
    components[1 + system.n_intermediate:] = -y_mag * phase * target.coefficients
    return make_null_vector(components, t, system)


def _check_seed(h0: np.ndarray, vals: np.ndarray, seeds: np.ndarray) -> None:
    """Raise unless every column of ``seeds`` is an eigenvector of ``h0``."""
    scale = float(np.abs(vals).max())
    h_seeds = h0 @ seeds
    rayleigh = np.vecdot(seeds, h_seeds, axis=0).real
    residual = np.linalg.norm(h_seeds - rayleigh * seeds, axis=0)
    if not np.all(residual <= 1e-8 * max(scale, 1e-300)):
        raise ValueError("seed is not an eigenvector at the start of the grid")


def _eigen_blocks(h_sampler, grid: np.ndarray, system: SystemSpec | None):
    """Sample once per grid point, in order; one stacked eigensolve per block.

    Yields ``(times, h, vals, vecs)``.  A block of the system's Hamiltonians
    whose A-A and X-X parts are all exactly zero (A the initial and
    degenerate states, X the intermediates, as for every resonant
    :func:`~stirapkit.model.hamiltonian`) is solved through the SVD of its
    A-X coupling block (:func:`_bipartite_eigh`), which reads only that
    block; any other block, or any block without ``system``, through
    ``eigh``, after each of its matrices passes the Hermitian test of
    :func:`numeric_null_space` (:func:`_hermitian`; ValueError otherwise).  Both give the same eigenvalues
    and, cluster by cluster, the same eigenspaces; they differ only in the
    column order and in the basis inside a degenerate cluster, and the
    continuation rule reads neither (it projects onto whole clusters and
    pins phases by overlaps).
    """
    if system is not None:
        on_a = np.ones(system.dim, dtype=bool)
        on_a[1:1 + system.n_intermediate] = False
        within = on_a[:, None] == on_a
    for start in range(0, grid.size, TRACK_BLOCK):
        times = grid[start:start + TRACK_BLOCK]
        h = np.array([h_sampler(t) for t in times.tolist()], dtype=complex)
        finite = np.isfinite(h).all(axis=(1, 2))
        if not finite.all():
            raise TrackingLost(
                f"non-finite Hamiltonian at t = {times[finite.argmin()]:g}")
        if (system is not None and h.shape[-1] == system.dim
                and not h[:, within].any()):
            vals, vecs = _bipartite_eigh(h, on_a)
        else:
            hermitian = _hermitian(h)
            if not hermitian.all():
                raise ValueError("expected a Hermitian matrix at "
                                 f"t = {times[hermitian.argmin()]:g}")
            vals, vecs = np.linalg.eigh(h)
        yield times, h, vals, vecs


def _bipartite_eigh(h: np.ndarray,
                    on_a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of stacked Hermitian ``h = [[0, K], [K^H, 0]]`` from SVDs of K.

    ``on_a`` marks the A indices, which are the first index and the last
    ``|A| - 1`` (the initial and the degenerate states), so that X is the
    slice ``1..N``; every A-A and X-X entry of ``h`` is zero.  Only the A-X
    block K is read, so ``h`` is taken to be Hermitian.  With
    ``K = U S V^H`` (Morris & Shore, Phys. Rev. A 27, 906 (1983)),
    ``(u_k; +-v_k)/sqrt(2)`` is an eigenvector at ``+-s_k`` for each of the
    ``r = min(|A|, |X|)`` singular values, since ``K v_k = s_k u_k`` and
    ``K^H u_k = s_k v_k``; the columns of U and V past r span the null
    spaces of ``K^H`` and K, so they are eigenvectors at 0 supported on A
    alone and on X alone.  These d orthonormal vectors are returned as
    ``(vals, vecs)`` like ``eigh``'s, in the order +s, -s, A null, X null.
    """
    d = h.shape[-1]
    n_a = int(np.count_nonzero(on_a))
    n = d - n_a
    # A = {0} and the tail 1+N.., X = 1..N, all as basic slices
    a0, tail, x = slice(0, 1), slice(1 + n, d), slice(1, 1 + n)
    r = min(n_a, n)
    u, s, vh = np.linalg.svd(np.concatenate((h[:, a0, x], h[:, tail, x]),
                                            axis=1))
    v = vh.conj().swapaxes(1, 2)
    vals = np.zeros(h.shape[:2])
    vals[:, :r] = s
    vals[:, r:2 * r] = -s
    vecs = np.zeros(h.shape, dtype=complex)
    bright = u[:, :, :r] / math.sqrt(2)
    vecs[:, a0, :r] = vecs[:, a0, r:2 * r] = bright[:, :1]
    vecs[:, tail, :r] = vecs[:, tail, r:2 * r] = bright[:, 1:]
    vecs[:, x, :r] = v[:, :, :r] / math.sqrt(2)
    vecs[:, x, r:2 * r] = -vecs[:, x, :r]
    vecs[:, a0, 2 * r:r + n_a] = u[:, :1, r:]
    vecs[:, tail, 2 * r:r + n_a] = u[:, 1:, r:]
    vecs[:, x, r + n_a:] = v[:, :, r:]
    return vals, vecs


def _clusters(vals: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """Whether eigenvalue i shares a degenerate cluster with each chosen one.

    ``vals`` is (..., d) and ``chosen`` (..., K) holds eigen-indices; the
    result is (..., d, K).  Eigenvalues within ``DEGENERACY_REL_TOL`` of
    the point's spectral radius share a cluster.
    """
    tol = DEGENERACY_REL_TOL * np.maximum(np.abs(vals).max(axis=-1), 1e-300)
    picked = np.take_along_axis(vals, chosen, axis=-1)
    return (np.abs(vals[..., :, None] - picked[..., None, :])
            <= tol[..., None, None])


def _continue(vecs: np.ndarray, vals: np.ndarray, prev: np.ndarray, t):
    """The continuation rule at one grid point, from the frame ``prev``.

    Returns the new frame and, per member, the index of the eigenvector it
    overlaps most.
    """
    overlaps = vecs.conj().T @ prev
    best = np.abs(overlaps).argmax(axis=0)
    q, r = np.linalg.qr(vecs @ (_clusters(vals, best) * overlaps))
    kept = r.diagonal() != 0
    if not kept.all():
        raise TrackingLost(f"frame member {kept.argmin()} vanished at t = {t:g}")
    aligned = np.vecdot(q, prev, axis=0)
    weight = np.abs(aligned)
    kept = weight >= MIN_OVERLAP
    if not kept.all():
        k = kept.argmin()
        raise TrackingLost(
            f"overlap {weight[k]:.3f} below {MIN_OVERLAP} for frame "
            f"member {k} at t = {t:g}; refine the time grid")
    return q * (aligned / weight), best


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """``out[g] = steps[g] @ ... @ steps[0]`` for a stack of square matrices.

    A blocked scan: doubling inside chunks of ``SCAN_CHUNK`` steps, doubling
    over the chunk totals, then one product that carries the steps of the
    earlier chunks into each later one.  The last chunk is padded with
    zeros, which reach only the padding and the last chunk's total, and the
    scan reads neither.
    """
    n, k = steps.shape[:2]
    chunk = min(SCAN_CHUNK, n)
    out = np.zeros((-(-n // chunk), chunk, k, k), dtype=steps.dtype)
    out.reshape(-1, k, k)[:n] = steps
    _doubling_scan(out.swapaxes(0, 1))
    totals = out[:-1, -1].copy()
    _doubling_scan(totals)
    out[1:] = out[1:] @ totals[:, None]
    return out.reshape(-1, k, k)[:n]


def _doubling_scan(p: np.ndarray) -> None:
    """``p[g] <- p[g] @ ... @ p[0]`` in place, in about log2(len(p)) products."""
    span = 1
    while span < len(p):
        p[span:] = p[span:] @ p[:-span]
        span *= 2


def _transport(vecs: np.ndarray, vals: np.ndarray, moved: np.ndarray,
               best: np.ndarray) -> int:
    """Transport the frame ``moved[0]``, the rule's result at ``vecs[0]``.

    Members whose best eigenvectors share a cluster form a group, and a group
    stays in the span ``U_g`` of its cluster's eigenvectors at point g.  In
    the coordinates ``C_g`` of that span the rule reads
    ``C_g R_g = T_g C_{g-1}`` with ``T_g = U_g^H U_{g-1}``: projection,
    Gram-Schmidt and phase pin are one QR with a real positive diagonal, and
    that diagonal holds the step overlaps.  So ``C_g`` is the Q factor of
    ``T_g...T_1 C_0``; the prefix products of a blocked scan
    (:func:`_prefix_products`) and one stacked QR give every point at once,
    and their R diagonal is the accumulated overlap, the product of the step
    overlaps so far.  Cluster masks are formed only for the columns read:
    the best eigenvectors at ``vecs[0]`` and, at each later point, those of
    the transported frame.

    Writes the frames at ``vecs[1:]`` into ``moved[1:]`` and returns how
    many leading points of ``moved`` hold the rule's frame: ``vecs[0]``, then
    each point at which every member's best eigenvector keeps the cluster it
    started in and every group's accumulated overlap is at least
    ``MIN_OVERLAP``.  Step overlaps are at most 1, so the latter keeps every
    step overlap at least ``MIN_OVERLAP`` too, and it keeps the prefix
    product well conditioned.  Groups whose clusters share an index, or that
    outnumber their cluster, are not transported (1 point).
    """
    n = vecs.shape[0] - 1
    frame = moved[0]
    clusters = _clusters(vals[0], best)
    groups: dict[bytes, list[int]] = {}
    for k in range(frame.shape[1]):
        groups.setdefault(clusters[:, k].tobytes(), []).append(k)
    masks = [clusters[:, cols[0]] for cols in groups.values()]
    if (n == 0 or np.sum(masks, axis=0).max() > 1
            or any(len(cols) > mask.sum()
                   for cols, mask in zip(groups.values(), masks))):
        return 1

    held = np.ones(n, dtype=bool)
    for cols, mask in zip(groups.values(), masks):
        u = vecs[:, :, mask]
        product = _prefix_products(u[1:].conj().swapaxes(1, 2) @ u[:-1])
        q, r = np.linalg.qr(product @ (u[0].conj().T @ frame[:, cols]))
        pinned = r.diagonal(axis1=1, axis2=2)
        accumulated = np.abs(pinned)
        phase = np.divide(pinned, accumulated, out=np.ones_like(pinned),
                          where=accumulated > 0)
        moved[1:, :, cols] = u[1:] @ (q * phase[:, None, :])
        held &= accumulated.prod(axis=1) >= MIN_OVERLAP

    # |F^H V| rather than |V^H F|: conjugates the (n, d, K) frames, not the
    # (n, d, d) eigenvectors
    moved_best = np.abs(moved[:-1].conj().swapaxes(1, 2) @ vecs[1:]).argmax(axis=2)
    held &= (_clusters(vals[1:], moved_best) == clusters).all(axis=(1, 2))
    failed = np.flatnonzero(~held)
    return 1 + (int(failed[0]) if failed.size else n)


def track_null_frame(h_sampler, seeds, grid,
                     system: SystemSpec | None = None) -> list[list[NullVector]]:
    """Track several mutually orthogonal eigenvectors as one orthonormal frame.

    ``h_sampler(t)`` must return the Hamiltonian at time t; it is called once
    per grid point, in grid order.  Every seed must be an eigenvector at the
    first grid point.  At each point, each member continues as the
    eigenvector with the largest overlap with its previous vector, or, when
    that eigenvalue sits in a degenerate cluster (where the bare eigenbasis
    is arbitrary), as the projection of its previous vector onto the whole
    cluster.  The members are then orthonormalised in seed order
    (Gram-Schmidt, so vectors sharing a cluster stay orthonormal) and each
    phase is pinned by a positive overlap with its previous vector
    (largest-component convention at the start).  Raises
    :class:`TrackingLost` when a member vanishes, when its step-to-step
    overlap drops below ``MIN_OVERLAP``, or when a sampled Hamiltonian is not
    finite.  Raises ValueError when a sampled Hamiltonian that goes to
    ``eigh`` is not Hermitian, by :func:`numeric_null_space`'s test; a block
    solved through its coupling block K (see :func:`_eigen_blocks`) reads
    K alone.  Returns one frame (list parallel to ``seeds``) per grid point;
    the vectors' components are read-only views of one frame stack.

    The rule runs point by point only where it must.  At the first point of
    each eigen-block it runs as stated; from there the frame is transported
    through the rest of the block in a few stacked products
    (:func:`_transport`), and every transported point is checked in one
    batch: each member's best eigenvector keeps its cluster, and the
    overlaps accumulated since the transport began stay at or above
    ``MIN_OVERLAP``.  At the first point that fails a check, the rule runs as
    stated again: it raises the error it would have raised, or the transport
    restarts from that point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 1:
        raise ValueError("empty time grid")
    prev = np.array([np.asarray(s.components, dtype=complex) for s in seeds]).T
    if prev.ndim != 2:
        raise ValueError("need at least one seed vector")
    prev = prev / np.linalg.norm(prev, axis=0)
    frames = np.empty((grid.size, prev.shape[1], prev.shape[0]), dtype=complex)
    idx = 0
    for times, h, vals, vecs in _eigen_blocks(h_sampler, grid, system):
        if idx == 0:
            _check_seed(h[0], vals[0], prev)
        g = 0
        while g < times.size:
            prev, best = _continue(vecs[g], vals[g], prev, times[g])
            if idx + g == 0:
                prev = _fix_phase(prev.T).T
            moved = frames[idx + g:idx + times.size].swapaxes(1, 2)
            moved[0] = prev
            kept = _transport(vecs[g:], vals[g:], moved, best)
            prev = moved[kept - 1]
            g += kept
        idx += times.size

    # the returned vectors are views of its rows, and this flag is what
    # keeps a write through one of them from changing the stack
    frames.setflags(write=False)
    members = frames.shape[1]
    vectors = _frame_vectors(frames.reshape(-1, frames.shape[2]),
                             np.repeat(grid, members).tolist(),
                             _labels(_node_profile(frames), system).ravel())
    return [vectors[i:i + members] for i in range(0, len(vectors), members)]


def _frame_vectors(rows: np.ndarray, times: list[float],
                   labels) -> list[NullVector]:
    """``NullVector(row, time, label=label)`` for each frame-stack row.

    Writes the three fields into each instance's ``__dict__``, where the
    dataclass ``__init__`` would put them, without running
    ``StateVector.__post_init__`` and so without its copy: the one place a
    vector's components are a view.  It is called only on the rows of the
    tracker's own frame stack.  Each row is 1-d, non-empty, complex and
    finite (a non-finite Hamiltonian stops tracking), and the stack is
    read-only and never written again.
    """
    vectors = []
    for components, time, label in zip(list(rows), times, labels.tolist()):
        vec = object.__new__(NullVector)
        fields = vec.__dict__
        fields["components"] = components
        fields["time"] = time
        fields["label"] = label
        vectors.append(vec)
    return vectors


def _time_grid(grid) -> np.ndarray:
    """``grid`` as floats; raises unless it is finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise ValueError("time grid must be finite and strictly increasing")
    return grid


def _coupling_chi(track_a, track_b, grid: np.ndarray) -> np.ndarray:
    """|<a(t), db/dt>| at the interior points of a checked grid, as one array.

    Raises unless the tracks match the grid and are orthonormal pairs at
    every point.
    """
    if not (len(track_a) == len(track_b) == grid.size):
        raise ValueError("tracks and grid must have equal length")
    a = np.array([v.components for v in track_a])
    b = np.array([v.components for v in track_b])
    deviation = np.maximum.reduce([
        np.abs(np.linalg.norm(a, axis=1) - 1),
        np.abs(np.linalg.norm(b, axis=1) - 1),
        np.abs(np.vecdot(a, b))])
    broken = np.flatnonzero(~(deviation <= ORTHONORMAL_TOL))
    if broken.size:
        raise ValueError(
            f"tracks are not an orthonormal pair at t = {grid[broken[0]]:g}")
    db = (b[2:] - b[:-2]) / (grid[2:] - grid[:-2])[:, None]
    return np.abs(np.vecdot(a[1:-1], db))


def analytic_pair_tracks(system: SystemSpec, fields: FieldSet, grid,
                         target: TargetSpec | None = None,
                         ) -> tuple[list[NullVector], list[NullVector]]:
    """Explicit-gauge track of the transfer carrier and one degenerate partner.

    The carrier is the closed-form null vector at each grid time.  The
    partner starts from the first right null direction ``y`` of the Stokes
    block, ``stokes_block @ y = 0`` (so ``(0; 0...; y)`` is a null
    eigenvector at every time, the situation that arises with more degenerate
    than intermediate states), and is orthogonalized against the carrier
    point by point.  Unlike projection tracking, this gauge is pinned to the
    physical basis labels, so the coupling between the pair retains the
    finite value responsible for leakage inside the manifold.
    """
    rank = numerical_rank(fields.peak_rabi_stokes)
    if rank == fields.n_degenerate:
        raise ValueError("Stokes block has no right null direction")
    y = np.linalg.svd(fields.peak_rabi_stokes)[2][rank].conj()

    base = np.zeros(system.dim, dtype=complex)
    base[1 + system.n_intermediate:] = y / np.linalg.norm(y)
    carrier_track: list[NullVector] = []
    partner_track: list[NullVector] = []
    for t in np.asarray(grid, dtype=float):
        carrier = analytic_lambda1(system, fields, float(t), target)
        a = carrier.components
        b = base - a * np.vdot(a, base)
        b = b / np.linalg.norm(b)
        carrier_track.append(carrier)
        partner_track.append(make_null_vector(b, float(t), system))
    return carrier_track, partner_track


def converged_max_coupling(tracks_for, t_start: float, t_end: float,
                           n_points: int = 201,
                           atol: float = 1e-15,
                           ) -> tuple[float, int, bool]:
    """Stencil-converged maximum coupling between two tracked vectors.

    ``tracks_for(grid)`` must return the pair of tracks on the given grid.
    The coupling is a derivative quantity, so the grid is refined (points
    doubled) until the maximum changes by less than ``COUPLING_REL_CHANGE``
    of itself or the change falls below ``atol``.  ``atol`` is absolute, in
    units of 1/time, like the coupling: the default 1e-15 is meant for a
    unit pulse width, and callers at other widths pass theirs scaled by
    1/width.  Each grid is tracked once: the first has ``2 * n_points - 1``
    points, and every other point of its tracks gives the ``n_points``
    estimate it is compared with; each finer grid contains the one before
    and is compared with its maximum.  Returns
    ``(chi_max, points_used, converged)``, ``points_used`` being the size of
    the last grid tracked.  A NaN coupling anywhere on a grid makes
    its maximum NaN, which can never converge, so refinement stops there
    with ``(nan, points_used, False)``.  Raises ValueError unless
    ``n_points`` is at least 3 and the window gives a finite, strictly
    increasing grid.
    """
    if n_points < 3:
        raise ValueError("grid too short for a central finite difference")
    coarse = None
    points = 2 * n_points - 1
    for _ in range(MAX_DOUBLINGS):
        grid = _time_grid(np.linspace(t_start, t_end, points))
        track_a, track_b = tracks_for(grid)
        chi_max = float(np.max(_coupling_chi(track_a, track_b, grid)))
        if coarse is None:
            coarse = float(np.max(_coupling_chi(track_a[::2], track_b[::2],
                                                grid[::2])))
        if math.isnan(coarse) or math.isnan(chi_max):
            return math.nan, points, False
        if abs(chi_max - coarse) <= max(COUPLING_REL_CHANGE * chi_max, atol):
            return chi_max, points, True
        coarse = chi_max
        points = 2 * points - 1
    return coarse, (points + 1) // 2, False
