"""Shared test utilities: random instances, the width ladder and independent oracles.

The oracles here deliberately avoid the package's own code paths: the
fixed-step integrator assembles its Hamiltonian from raw arrays and steps
with classic RK4, the exact determinant uses fraction-free integer
elimination, the frame tracker diagonalises one point at a time and
orthonormalises seed by seed, and the CSV oracle writes row by row through
:mod:`csv`.  They exist to cross-check rather than reuse the library.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np

from stirapkit import (Bounds, FieldSet, PropagationConfig, Scenario,
                       SystemSpec, TargetSpec, builtin_scenario,
                       check_feasibility, design_fields, sweep)


def crandn(rng, *shape):
    """Complex standard normal samples."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_feasible_system(rng, n, m, max_condition=1e5) -> SystemSpec:
    """Random complex dipoles with a comfortably nonsingular Stokes block.

    The conditioning guard keeps property tests away from accidentally
    near-singular draws whose null-space separation would be dominated by
    roundoff rather than by the structure under test.
    """
    for _ in range(100):
        mu_stokes = crandn(rng, n, m)
        singular = np.linalg.svd(mu_stokes, compute_uv=False)
        if singular[0] / singular[-1] < max_condition:
            break
    else:
        raise RuntimeError("could not draw a well-conditioned dipole matrix")
    mu_pump = crandn(rng, n)
    system = SystemSpec(n, m, mu_pump, mu_stokes)
    assert check_feasibility(system, TargetSpec.basis(m)).feasible
    return system


def random_target(rng, m) -> TargetSpec:
    c = crandn(rng, m)
    return TargetSpec(c / np.linalg.norm(c))


def random_designed_fields(rng, system, target=None, rabi_scale=80.0,
                           width=1.0):
    """Designer output for random Stokes amplitudes/phases and a random eta.

    ``rabi_scale`` fixes the mean Stokes peak amplitude in units of one over
    the width, so propagation-based tests sit in the adiabatic regime.
    """
    n = system.n_intermediate
    if target is None:
        target = TargetSpec.basis(system.n_degenerate)
    amplitudes = rng.uniform(0.5, 1.5, n)
    phases = rng.uniform(0.0, 2 * np.pi, n)
    eta = rng.uniform(0.7, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    fields = design_fields(system, target, eta, width, amplitudes, phases)
    mean = np.abs(fields.peak_rabi_stokes).mean()
    return fields.scaled(rabi_scale / mean), target, eta


def named_system_and_fields(case: str):
    """A built-in scenario's system and fields, or a seeded complex design.

    ``"fig2"`` names a built-in scenario; ``"seed41"`` draws a 5/3 system
    and its designed fields from ``default_rng(41)``, and ``"seed41-4x4"``
    a 4/4 one.
    """
    if case.startswith("fig"):
        scenario = builtin_scenario(case)
        return scenario.system, scenario.resolve_fields()
    seed, _, shape = case.removeprefix("seed").partition("-")
    n, m = map(int, shape.split("x")) if shape else (5, 3)
    rng = np.random.default_rng(int(seed))
    system = random_feasible_system(rng, n, m)
    fields, _, _ = random_designed_fields(rng, system, width=1.3)
    return system, fields


def width_ladder(system, fields, target=None):
    """Run records of the width ladder x(1, 2, 4) at fixed peak amplitudes.

    One serial ``sweep --axis width`` over a scenario holding ``fields``.
    """
    target = TargetSpec.resolve(target, system.n_degenerate)
    scenario = Scenario("ladder", system, target, fields, None,
                        PropagationConfig(), Bounds())
    return [entry.record for entry in sweep(scenario, "width", (1, 2, 4),
                                            jobs=1)]


def raw_hamiltonian(pump_rabi, stokes_rabi, width, t):
    """H(t) assembled entry by entry from the raw coupling arrays.

    No shared code with the package's propagator or model assembly.
    """
    pump_rabi = np.asarray(pump_rabi, dtype=complex)
    stokes_rabi = np.asarray(stokes_rabi, dtype=complex)
    n, m = stokes_rabi.shape
    h = np.zeros((1 + n + m, 1 + n + m), dtype=complex)
    ep = np.exp(-((t - width) / width) ** 2)
    es = np.exp(-((t / width) ** 2))
    h[0, 1:1 + n] = pump_rabi * ep
    h[1:1 + n, 0] = np.conj(pump_rabi) * ep
    h[1:1 + n, 1 + n:] = stokes_rabi * es
    h[1 + n:, 1:1 + n] = stokes_rabi.conj().T * es
    return h


def rk4_evolve(pump_rabi, stokes_rabi, width, psi0, t0, t1, n_steps):
    """Independent fixed-step RK4 integration of i dpsi/dt = H(t) psi.

    Builds the Hamiltonian with :func:`raw_hamiltonian` on every evaluation.
    """
    def f(t, psi):
        return -1j * (raw_hamiltonian(pump_rabi, stokes_rabi, width, t) @ psi)

    psi = np.asarray(psi0, dtype=complex).copy()
    h_step = (t1 - t0) / n_steps
    t = t0
    for _ in range(n_steps):
        k1 = f(t, psi)
        k2 = f(t + 0.5 * h_step, psi + 0.5 * h_step * k1)
        k3 = f(t + 0.5 * h_step, psi + 0.5 * h_step * k2)
        k4 = f(t + h_step, psi + h_step * k3)
        psi = psi + (h_step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h_step
    return psi


def bareiss_det(matrix) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    m = [[int(x) for x in row] for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def stokes_right_null_vectors(stokes_rabi):
    """Orthonormal basis of the right null space of a Stokes peak matrix."""
    _, singular, vh = np.linalg.svd(stokes_rabi)
    rank = int((singular > 1e-12 * singular[0]).sum())
    return vh[rank:].conj()


def intermediate_null_seeds(fields: FieldSet):
    """Null eigenvectors supported on the intermediate states alone.

    For fewer degenerate than intermediate states, any vector whose
    intermediate components are annihilated by the conjugate Stokes block is
    a null eigenvector of the full Hamiltonian at every time; these seed the
    degenerate-partner tracks.
    """
    _, singular, vh = np.linalg.svd(fields.peak_rabi_stokes.conj().T)
    rank = int((singular > 1e-12 * singular[0]).sum())
    xs = vh[rank:].conj()
    n, m = fields.n_intermediate, fields.n_degenerate
    seeds = []
    for x in xs:
        v = np.zeros(1 + n + m, dtype=complex)
        v[1:1 + n] = x
        seeds.append(v)
    return seeds


def reference_null_frame(h_of, seeds, grid, degeneracy_tol=1e-8,
                         min_overlap=0.5):
    """Plain per-point frame tracker, shaped (points, seeds, dim).

    At every grid point, one seed at a time: take the eigenvector with the
    largest overlap with the seed's previous vector, or the projection of
    that vector onto the eigenvector's degenerate cluster (eigenvalues within
    ``degeneracy_tol`` of the spectral radius); subtract the members already
    placed (classical Gram-Schmidt in seed order); normalise; rotate to a
    positive overlap with the previous vector.  On the first point each
    vector's largest component is then made real positive.
    """
    previous = [np.asarray(s, dtype=complex) / np.linalg.norm(s)
                for s in seeds]
    frames = []
    for i, t in enumerate(grid):
        vals, vecs = np.linalg.eigh(h_of(float(t)))
        scale = max(float(np.abs(vals).max()), 1e-300)
        placed = []
        for prev in previous:
            overlaps = vecs.conj().T @ prev
            best = int(np.argmax(np.abs(overlaps)))
            cluster = np.abs(vals - vals[best]) <= degeneracy_tol * scale
            vec = vecs[:, cluster] @ overlaps[cluster]
            for other in placed:
                vec = vec - other * np.vdot(other, vec)
            vec = vec / np.linalg.norm(vec)
            overlap = np.vdot(vec, prev)
            if abs(overlap) < min_overlap:
                raise RuntimeError(f"reference tracker lost at t = {t:g}")
            vec = vec * (overlap / abs(overlap))
            if i == 0:
                pivot = vec[int(np.argmax(np.abs(vec)))]
                vec = vec * (abs(pivot) / pivot)
            placed.append(vec)
        frames.append(placed)
        previous = placed
    return np.array(frames)


def node_label(vec, n, node_tol=1e-10) -> str:
    """Paper label of a dressed vector from its nodes, written out by hand.

    "Lambda1": nonzero initial and last degenerate amplitudes, nodes on every
    intermediate and every other degenerate state.  "Lambda3": nodes on the
    initial state and the whole degenerate manifold, not on every
    intermediate.  Anything else is "Generic".
    """
    node = [abs(c) < node_tol for c in vec]
    initial, middle, degenerate = node[0], node[1:1 + n], node[1 + n:]
    if (not initial and all(middle) and all(degenerate[:-1])
            and not degenerate[-1]):
        return "Lambda1"
    if initial and all(degenerate) and not all(middle):
        return "Lambda3"
    return "Generic"


def trajectory_csv_oracle(trajectory) -> bytes:
    """Trajectory CSV written one row at a time with :func:`csv.writer`."""
    n, m = trajectory.n_intermediate, trajectory.n_degenerate
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["t_over_T", "p0"]
                    + [f"p_i{k}" for k in range(1, n + 1)]
                    + [f"p_f{j}" for j in range(1, m + 1)]
                    + ["P_x", "P_y", "P_f", "norm_err"])
    for i, time in enumerate(trajectory.times):
        row = ([time / trajectory.width] + list(trajectory.populations[i])
               + [trajectory.p_x[i], trajectory.p_y[i], trajectory.p_f[i],
                  trajectory.norm_error[i]])
        writer.writerow([format(v, ".17g") for v in row])
    return handle.getvalue().encode()


def nan_solve_ivp(fun, t_span, y0, t_eval=None, **kwargs):
    """Stand-in for ``solve_ivp`` that reports success with a NaN state."""
    points = 1 if t_eval is None else len(t_eval)
    return SimpleNamespace(success=True, message="",
                           y=np.full((len(y0), points), np.nan, dtype=complex))


def unreachable_solve_ivp(*args, **kwargs):
    """Stand-in for ``solve_ivp`` in runs that must fail before integrating.

    A run that reaches it fails at once instead of possibly never ending.
    """
    raise AssertionError("the integrator was called")
