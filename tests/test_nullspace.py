"""Dark-state structure: Stokes block, cofactors, null spaces, tracking."""

import math
import sys

import numpy as np
import pytest

from stirapkit import (DesignError, FieldSet, NullVector, NullVectorLabel,
                       StateVector, SystemSpec, TargetSpec, TrackingLost,
                       analytic_lambda1, analytic_pair_tracks,
                       builtin_scenario, check_feasibility, cofactor_matrix,
                       converged_max_coupling, hamiltonian, make_null_vector,
                       matched_pump_rabi, numeric_null_space,
                       phase_aligned_distance, track_null_frame)

from stirapkit import nullspace
from stirapkit.nullspace import NODE_TOL, TRACK_BLOCK

from helpers import (bareiss_det, crandn, intermediate_null_seeds, node_label,
                     random_designed_fields, random_feasible_system,
                     reference_null_frame)

# Exact determinant of the 7x7 reference Stokes table at its peak, from
# fraction-free integer elimination (helpers.bareiss_det).
FIG2_DET_EXACT = -254139097158


@pytest.fixture(scope="module")
def fig2():
    scenario = builtin_scenario("fig2")
    return scenario.system, scenario.fields


def s_matrix(fields, t):
    """The N x M Stokes block of the Hamiltonian at time t."""
    n, m = fields.n_intermediate, fields.n_degenerate
    system = SystemSpec(n, m, np.ones(n), np.ones((n, m)))
    return hamiltonian(system, fields, t)[1:1 + n, 1 + n:]


class TestSMatrix:
    def test_zero_fields(self):
        fields = FieldSet([0, 0], [[0, 0, 0], [0, 0, 0]], 1.0)
        assert np.all(s_matrix(fields, 0.3) == 0)
        assert s_matrix(fields, 0.0).shape == (2, 3)

    def test_reference_first_row(self, fig2):
        _, fields = fig2
        row = s_matrix(fields, 0.0)[0]
        assert np.allclose(row, [90, 15, 0, 150, 36, 18, 60])

    def test_gaussian_scaling(self, fig2):
        _, fields = fig2
        assert np.allclose(s_matrix(fields, 1.0),
                           s_matrix(fields, 0.0) * np.exp(-1.0))


class TestDetS:
    # for N = M every Stokes row is selected, so the feasibility report's
    # det_check is det S of the dipole table
    def test_diagonal_ones(self):
        system = SystemSpec(3, 3, np.ones(3), np.eye(3))
        report = check_feasibility(system, TargetSpec.basis(3))
        assert report.det_check == pytest.approx(1.0)

    def test_common_envelope_factorization(self):
        rng = np.random.default_rng(3)
        m = 4
        fields = FieldSet(crandn(rng, m), crandn(rng, m, m) * 30, 1.4)
        ref = np.linalg.det(s_matrix(fields, 0.0))
        for t in (-2.0, 0.7, 3.1):
            expected = ref * np.exp(-m * (t / fields.width) ** 2)
            assert np.linalg.det(s_matrix(fields, t)) == pytest.approx(
                expected, rel=1e-10)

    def test_reference_against_exact_elimination(self, fig2):
        system, fields = fig2
        table = np.real(fields.peak_rabi_stokes).astype(int)
        assert bareiss_det(table) == FIG2_DET_EXACT
        report = check_feasibility(system, TargetSpec.basis(7))
        assert report.selected_rows == tuple(range(1, 8))
        assert report.det_check == pytest.approx(FIG2_DET_EXACT, rel=1e-12)


class TestCofactorMatrix:
    def test_identity(self):
        assert np.allclose(cofactor_matrix(np.eye(4)), np.eye(4))

    def test_two_by_two(self):
        a, b, c, d = 1.5 + 2j, -0.5j, 3.0, 2.0 - 1j
        cof = cofactor_matrix(np.array([[a, b], [c, d]]))
        assert np.allclose(cof, [[d, -c], [-b, a]])

    def test_adjugate_identity_random(self):
        rng = np.random.default_rng(5)
        s = crandn(rng, 5, 5)
        cof = cofactor_matrix(s)
        det = np.linalg.det(s)
        assert np.allclose(cof.T @ s, det * np.eye(5), atol=1e-10 * abs(det))

    def test_alien_cofactor_expansion(self):
        # expanding the last column against cofactors of column j picks out
        # det(s) exactly when j is the last column, zero otherwise
        rng = np.random.default_rng(6)
        for size in (2, 3, 5, 7):
            s = crandn(rng, size, size)
            cof = cofactor_matrix(s)
            det = np.linalg.det(s)
            scale = np.prod(np.linalg.norm(s, axis=1))
            lhs = cof.T @ s[:, -1]
            expected = np.zeros(size, complex)
            expected[-1] = det
            assert np.allclose(lhs, expected, atol=1e-10 * scale)

    def test_defined_for_singular(self):
        s = np.array([[1.0, 2.0], [2.0, 4.0]])
        cof = cofactor_matrix(s)
        assert np.allclose(cof, [[4.0, -2.0], [-2.0, 1.0]])

    def test_one_by_one(self):
        s = np.array([[2.5 - 1j]])
        cof = cofactor_matrix(s)
        assert np.array_equal(cof, [[1.0]])
        assert np.allclose(cof.T @ s, np.linalg.det(s) * np.eye(1))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            cofactor_matrix(np.ones((2, 3)))


class TestNumericNullSpace:
    def test_zero_matrix_full_basis(self):
        vectors = numeric_null_space(np.zeros((5, 5), complex))
        assert len(vectors) == 5
        basis = np.array([v.components for v in vectors])
        assert np.allclose(basis @ basis.conj().T, np.eye(5), atol=1e-12)

    def test_reference_single_null_vector(self, fig2):
        system, fields = fig2
        h = hamiltonian(system, fields, 0.0)
        vectors = numeric_null_space(h, tol=1e-9 * fields.max_rabi,
                                     system=system)
        assert len(vectors) == 1
        analytic = analytic_lambda1(system, fields, 0.0)
        assert phase_aligned_distance(vectors[0].components,
                                      analytic.components) < 1e-10

    def test_extra_null_vectors_below_full_degeneracy(self):
        rng = np.random.default_rng(8)
        system = random_feasible_system(rng, 3, 2)
        fields, _, _ = random_designed_fields(rng, system)
        h = hamiltonian(system, fields, 0.6)
        vectors = numeric_null_space(h, tol=1e-9 * fields.max_rabi)
        assert len(vectors) == 2  # one transfer carrier plus one partner

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            numeric_null_space(np.zeros((2, 3), complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            numeric_null_space(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("skew,hermitian", [
        (1e-3, False), (1e-5, False), (1e-11, False), (1e-13, True)])
    def test_hermitian_bound_is_absolute(self, skew, hermitian):
        # the stated bound is 1e-12 times the largest entry, here 1; no
        # relative tolerance may be added on top of it
        h = np.array([[0, 1, 0], [1 + skew, 0, 0], [0, 0, 0]], dtype=complex)
        if hermitian:
            assert len(numeric_null_space(h)) == 1
        else:
            with pytest.raises(ValueError, match="Hermitian"):
                numeric_null_space(h)

    @pytest.mark.parametrize("scale", [1.0, 1e-17, 1e-30, 1e13])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        # the bound is relative to the largest entry, as the rank rule is:
        # a lone off-diagonal entry is far from Hermitian at any scale
        h = scale * np.array([[0, 1e-13], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            numeric_null_space(h)

    def test_basis_size_independent_of_scale(self, fig2):
        system, fields = fig2
        h = hamiltonian(system, fields, 0.3)
        sizes = [len(numeric_null_space(scale * h))
                 for scale in (1e-30, 1.0, 1e30)]
        assert sizes == [1, 1, 1]


class TestAnalyticLambda1:
    def test_early_time_is_initial_state(self, fig2):
        system, fields = fig2
        vec = analytic_lambda1(system, fields, -20.0)
        expected = np.zeros(system.dim)
        expected[0] = 1.0
        assert np.linalg.norm(vec.components - expected) < 1e-12

    def test_late_time_is_target_state(self, fig2):
        system, fields = fig2
        vec = analytic_lambda1(system, fields, 20.0)
        assert abs(vec.components[0]) < 1e-12
        assert abs(abs(vec.components[-1]) - 1.0) < 1e-12
        assert np.all(np.abs(vec.components[1:-1]) == 0.0)

    def test_annihilated_by_hamiltonian(self, fig2):
        system, fields = fig2
        for t in (-1.0, 0.5, 1.5):
            vec = analytic_lambda1(system, fields, t)
            h = hamiltonian(system, fields, t)
            h_norm = np.linalg.norm(h, 2)
            assert np.linalg.norm(h @ vec.components) < 1e-12 * h_norm

    def test_node_count_and_label(self, fig2):
        system, fields = fig2
        n, m = system.n_intermediate, system.n_degenerate
        for t in (-3.0, 0.5, 4.0):
            vec = analytic_lambda1(system, fields, t)
            assert vec.label is NullVectorLabel.LAMBDA1
            assert (np.abs(vec.components) < 1e-12).sum() == n + m - 1

    def test_rejects_unmatched_fields(self, fig2):
        system, fields = fig2
        pump = fields.peak_rabi_pump.copy()
        pump[0] *= 1.01
        broken = FieldSet(pump, fields.peak_rabi_stokes, fields.width)
        with pytest.raises(DesignError):
            analytic_lambda1(system, broken, 0.0)

    def test_rejects_rank_deficient_stokes(self):
        scenario = builtin_scenario("fig5")  # two Stokes columns zeroed
        with pytest.raises(DesignError, match="rank"):
            analytic_lambda1(scenario.system, scenario.fields, 0.0)

    def test_nan_time_rejected(self, fig2):
        # the closed form at t = nan is a NaN vector, which no state may hold
        system, fields = fig2
        with pytest.raises(ValueError, match="state vector must be finite"):
            analytic_lambda1(system, fields, math.nan)

    def test_superposition_target(self, fig2):
        system, fields = fig2
        rng = np.random.default_rng(9)
        c = crandn(rng, 7)
        target = TargetSpec(c / np.linalg.norm(c))
        from stirapkit import matched_pump_rabi
        pump = matched_pump_rabi(fields.peak_rabi_stokes, target, 1.0)
        designed = FieldSet(pump, fields.peak_rabi_stokes, fields.width)
        vec = analytic_lambda1(system, designed, 0.8, target)
        h = hamiltonian(system, designed, 0.8)
        assert np.linalg.norm(h @ vec.components) < 1e-12 * np.linalg.norm(h, 2)


class TestTracking:
    def test_constant_hamiltonian_constant_track(self):
        rng = np.random.default_rng(10)
        a = crandn(rng, 4, 4)
        h = a + a.conj().T
        vals, vecs = np.linalg.eigh(h)
        seed = make_null_vector(vecs[:, 1], 0.0)
        grid = np.linspace(0.0, 1.0, 11)
        frames = track_null_frame(lambda t: h, [seed], grid)
        for (vec,) in frames:
            assert abs(np.vdot(vec.components, vecs[:, 1])) > 1 - 1e-12

    def test_reference_track_keeps_nodes(self, fig2):
        system, fields = fig2
        grid = np.linspace(-4.0, 5.0, 181)
        seed = analytic_lambda1(system, fields, grid[0])
        frames = track_null_frame(
            lambda t: hamiltonian(system, fields, t), [seed], grid,
            system=system)
        for (vec,) in frames:
            assert vec.label is NullVectorLabel.LAMBDA1

    def test_partner_tracks_stay_off_transfer_states(self):
        rng = np.random.default_rng(12)
        system = random_feasible_system(rng, 4, 2)
        fields, target, _ = random_designed_fields(rng, system)
        grid = np.linspace(-4.0, 5.0, 181)
        sampler = lambda t: hamiltonian(system, fields, t)
        lam1 = analytic_lambda1(system, fields, grid[0], target)
        partners = [make_null_vector(v, grid[0], system)
                    for v in intermediate_null_seeds(fields)]
        frames = track_null_frame(sampler, [lam1] + partners, grid,
                                  system=system)
        n = system.n_intermediate
        for frame in frames:
            assert frame[0].label is NullVectorLabel.LAMBDA1
            for partner in frame[1:]:
                # never acquires initial- or degenerate-state amplitude
                # (eigensolver contamination stays at roundoff level)
                assert abs(partner.components[0]) < 1e-12
                assert np.all(np.abs(partner.components[1 + n:]) < 1e-12)
                assert partner.label is NullVectorLabel.LAMBDA3

    def test_empty_grid_rejected(self):
        seed = make_null_vector(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError, match="empty time grid"):
            track_null_frame(lambda t: np.zeros((2, 2)), [seed], [])

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            track_null_frame(lambda t: np.zeros((2, 2)), [], [0.0, 1.0])

    def test_seed_must_be_eigenvector(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        seed = make_null_vector(np.array([1, 1, 0]) / np.sqrt(2), 0.0)
        with pytest.raises(ValueError, match="eigenvector"):
            track_null_frame(lambda t: h, [seed], [0.0, 1.0])

    def test_tracking_lost_on_coarse_grid(self):
        # between the two samples the eigenbasis jumps from the standard to
        # the Hadamard basis: every overlap is 1/sqrt(8) < 0.5
        import scipy.linalg
        w = scipy.linalg.hadamard(8) / np.sqrt(8)
        d = np.diag(np.arange(1.0, 9.0))

        def sampler(t):
            return d if t < 0.5 else w @ d @ w.T

        seed = make_null_vector(np.eye(8)[0], 0.0)
        with pytest.raises(TrackingLost):
            track_null_frame(sampler, [seed], [0.0, 1.0])
        pair = [seed, make_null_vector(np.eye(8)[1], 0.0)]
        with pytest.raises(TrackingLost):
            track_null_frame(sampler, pair, [0.0, 1.0])

    def test_non_finite_hamiltonian(self):
        h = np.diag([1.0, 2.0, 3.0]).astype(complex)
        seed = make_null_vector(np.eye(3)[0], 0.0)

        def sampler(t):
            return h * np.nan if t > 0.5 else h

        with pytest.raises(TrackingLost, match="non-finite"):
            track_null_frame(sampler, [seed], np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("case", ["fig2", "partners", "long", "rotating"])
    def test_matches_reference_tracker(self, fig2, case):
        if case == "rotating":
            # a threefold eigenvalue whose eigenspace turns with time: the
            # cluster projections are no longer orthogonal, so the
            # Gram-Schmidt step matters
            import scipy.linalg
            rng = np.random.default_rng(18)
            a = crandn(rng, 6, 6)
            generator = a + a.conj().T
            levels = np.diag([0.0, 0.0, 0.0, 1.0, 2.5, -1.5])

            def sampler(t):
                u = scipy.linalg.expm(1j * t * generator)
                return u @ levels @ u.conj().T

            system = None
            grid = np.linspace(0.0, 1.0, 201)
            seeds = [make_null_vector(v, 0.0) for v in np.eye(6)[:4]]
        else:
            if case == "fig2":
                system, fields = fig2
                target = TargetSpec.basis(system.n_degenerate)
                points = 181
            else:
                rng = np.random.default_rng(16)
                system = random_feasible_system(rng, 5, 2)
                fields, target, _ = random_designed_fields(rng, system)
                # the long grid crosses two block boundaries
                points = 181 if case == "partners" else 2 * TRACK_BLOCK + 3
            grid = np.linspace(-4.0, 5.0, points)
            seeds = [analytic_lambda1(system, fields, grid[0], target)]
            seeds += [make_null_vector(v, grid[0], system)
                      for v in intermediate_null_seeds(fields)]

            def sampler(t):
                return hamiltonian(system, fields, t)

        frames = track_null_frame(sampler, seeds, grid, system=system)
        expected = reference_null_frame(
            sampler, [s.components for s in seeds], grid)
        got = np.array([[v.components for v in f] for f in frames])
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12
        for frame, reference in zip(frames, expected):
            labels = [v.label.value for v in frame]
            if system is None:
                assert labels == ["Generic"] * len(frame)
            else:
                assert labels == [node_label(r, system.n_intermediate)
                                  for r in reference]

    def test_sampler_called_once_per_point_in_order(self):
        rng = np.random.default_rng(17)
        a = crandn(rng, 5, 5)
        h = a + a.conj().T
        _, vecs = np.linalg.eigh(h)
        grid = np.linspace(0.0, 1.0, TRACK_BLOCK + 7)
        calls = []

        def sampler(t):
            calls.append(t)
            return h * (1.0 + t)

        track_null_frame(sampler, [make_null_vector(vecs[:, 0], 0.0),
                                   make_null_vector(vecs[:, 3], 0.0)], grid)
        assert calls == grid.tolist()


def bipartite_stack(rng, n, m, rank, points=5):
    """Hamiltonians of an (n, m) system coupling A to X alone, K of given rank.

    A is the initial state and the m degenerate states, X the n
    intermediates; returns the stack and the A mask.
    """
    on_a = np.ones(1 + n + m, dtype=bool)
    on_a[1:1 + n] = False
    a, x = np.flatnonzero(on_a), np.flatnonzero(~on_a)
    k = crandn(rng, points, a.size, rank) @ crandn(rng, points, rank, x.size)
    h = np.zeros((points, 1 + n + m, 1 + n + m), dtype=complex)
    h[:, a[:, None], x] = k
    h[:, x[:, None], a] = k.conj().swapaxes(1, 2)
    return h, on_a


class TestMorrisShoreBlocks:
    """Tracking blocks diagonalised through the SVD of the A-X coupling block."""

    @pytest.mark.parametrize("n, m, rank", [
        (4, 2, 3), (5, 5, 5), (2, 4, 2), (3, 2, 3),
        (4, 2, 2), (2, 4, 1), (5, 5, 3)],
        ids=["full-1+M<N", "full-1+M>N", "full-1+M>N-wide", "full-1+M=N",
             "deficient-1+M<N", "deficient-1+M>N", "deficient-1+M>N-square"])
    def test_bipartite_eigh_is_an_eigensystem(self, n, m, rank):
        rng = np.random.default_rng(40 + 7 * n + m + rank)
        h, on_a = bipartite_stack(rng, n, m, rank)
        vals, vecs = nullspace._bipartite_eigh(h, on_a)
        scale = np.linalg.norm(h, 2, axis=(1, 2))
        residual = np.linalg.norm(h @ vecs - vecs * vals[:, None, :], axis=1)
        assert np.all(residual <= 1e-12 * scale[:, None])
        gram = vecs.conj().swapaxes(1, 2) @ vecs
        assert np.abs(gram - np.eye(1 + n + m)).max() <= 1e-12
        assert np.all(np.abs(np.sort(vals, axis=1) - np.linalg.eigvalsh(h))
                      <= 1e-12 * scale[:, None])

    @pytest.mark.parametrize("case", ["fig2", "partners"])
    def test_track_null_frame_same_with_and_without_system(self, fig2, case):
        if case == "fig2":
            system, fields = fig2
            target = TargetSpec.basis(system.n_degenerate)
        else:
            rng = np.random.default_rng(41)
            system = random_feasible_system(rng, 6, 3)
            fields, target, _ = random_designed_fields(rng, system)
        grid = np.linspace(-4.0, 5.0, 301)
        seeds = [analytic_lambda1(system, fields, grid[0], target)]
        seeds += [make_null_vector(v, grid[0], system)
                  for v in intermediate_null_seeds(fields)]

        def sampler(t):
            return hamiltonian(system, fields, t)

        with_svd = track_null_frame(sampler, seeds, grid, system=system)
        with_eigh = track_null_frame(sampler, seeds, grid)
        got = np.array([[v.components for v in f] for f in with_svd])
        expected = np.array([[v.components for v in f] for f in with_eigh])
        assert np.abs(got - expected).max() <= 1e-12

    def test_detuned_sampler_takes_eigh_path(self, fig2, monkeypatch):
        # a detuning on an intermediate state fills the X-X part but leaves
        # the carrier, which has nodes there, a null eigenvector
        def no_svd(*args):
            raise AssertionError("bipartite path taken")

        monkeypatch.setattr(nullspace, "_bipartite_eigh", no_svd)
        system, fields = fig2
        detuning = np.zeros((system.dim, system.dim))
        detuning[2, 2] = 5.0

        def sampler(t):
            return hamiltonian(system, fields, t) + detuning

        grid = np.linspace(-4.0, 5.0, 181)
        seed = analytic_lambda1(system, fields, grid[0])
        frames = track_null_frame(sampler, [seed], grid, system=system)
        expected = reference_null_frame(sampler, [seed.components], grid)
        got = np.array([[v.components for v in f] for f in frames])
        assert np.abs(got - expected).max() <= 1e-12

    def test_bipartite_tracking_needs_no_eigh(self, fig2, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called")

        monkeypatch.setattr(nullspace.np.linalg, "eigh", no_eigh)
        system, fields = fig2
        grid = np.linspace(-4.0, 5.0, 181)
        seed = analytic_lambda1(system, fields, grid[0])
        frames = track_null_frame(
            lambda t: hamiltonian(system, fields, t), [seed], grid,
            system=system)
        final = analytic_lambda1(system, fields, grid[-1])
        assert phase_aligned_distance(frames[-1][0].components,
                                      final.components) < 1e-8


def rotating_sampler(seed, levels, joined=None):
    """``U(t) diag(levels) U(t)^H`` with ``U(t) = expm(i t A)``, A random Hermitian.

    Inside the closed interval ``joined`` the third level is zero.
    """
    import scipy.linalg
    rng = np.random.default_rng(seed)
    a = crandn(rng, len(levels), len(levels))
    generator = a + a.conj().T

    def sampler(t):
        diagonal = np.array(levels, dtype=float)
        if joined is not None and joined[0] <= t <= joined[1]:
            diagonal[2] = 0.0
        u = scipy.linalg.expm(1j * t * generator)
        return u @ np.diag(diagonal) @ u.conj().T

    return sampler


class TestTrackingRestarts:
    """Where the block transport must hand over to the point-by-point rule."""

    @staticmethod
    def rule_times(monkeypatch):
        """Times at which the point-by-point rule runs, recorded as it runs."""
        times = []
        rule = nullspace._continue

        def recorded(vecs, same, prev, t):
            times.append(float(t))
            return rule(vecs, same, prev, t)

        monkeypatch.setattr(nullspace, "_continue", recorded)
        return times

    @staticmethod
    def assert_matches_reference(sampler, seeds, grid):
        frames = track_null_frame(sampler, seeds, grid)
        expected = reference_null_frame(
            sampler, [s.components for s in seeds], grid)
        got = np.array([[v.components for v in f] for f in frames])
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12
        assert all(v.label is NullVectorLabel.GENERIC
                   for f in frames for v in f)

    def test_eigenvalue_joins_and_leaves_cluster(self, monkeypatch):
        # a third level drops onto the tracked twofold zero in the middle of
        # the first block and rises again before it ends
        joined = (0.3, 0.45)
        sampler = rotating_sampler(19, [0.0, 0.0, 0.5, 1.0, 2.5, -1.5],
                                   joined)
        grid = np.linspace(0.0, 1.0, TRACK_BLOCK + 60)
        seeds = [make_null_vector(v, 0.0) for v in np.eye(6)[[0, 1, 3]]]
        times = self.rule_times(monkeypatch)
        self.assert_matches_reference(sampler, seeds, grid)
        first_in = grid[grid >= joined[0]][0]
        first_out = grid[grid > joined[1]][0]
        assert {grid[0], first_in, first_out, grid[TRACK_BLOCK]} <= set(times)
        assert len(times) < grid.size // 10

    def test_rotating_threefold_across_block_boundary(self):
        sampler = rotating_sampler(18, [0.0, 0.0, 0.0, 1.0, 2.5, -1.5])
        grid = np.linspace(0.0, 1.0, TRACK_BLOCK + 45)
        seeds = [make_null_vector(v, 0.0) for v in np.eye(6)[:4]]
        self.assert_matches_reference(sampler, seeds, grid)

    def test_coarse_grid(self):
        # the cluster turns through a large angle per step; the transport
        # must restart often enough to stay as accurate as the point rule
        sampler = rotating_sampler(23, [0.0, 0.0, 0.0, 1.0, 2.5, -1.5, 4.0,
                                        -3.0])
        grid = np.linspace(0.0, 20.0, TRACK_BLOCK)
        seeds = [make_null_vector(v, 0.0) for v in np.eye(8)[:3]]
        self.assert_matches_reference(sampler, seeds, grid)

    def test_low_overlap_with_same_best_eigenvector(self):
        # at the jump the tracked vector's best eigenvector keeps its index
        # and its (non-degenerate) cluster, but overlaps it by only 0.45
        c = np.sqrt((1.0 - 0.45 ** 2) / 4.0)
        w = np.array([0.45 - 1.0, c, c, c, c])
        reflector = np.eye(5) - 2.0 * np.outer(w, w) / (w @ w)
        d = np.diag(np.arange(1.0, 6.0))
        grid = np.linspace(0.0, 1.0, 300)
        jump = grid[100]

        def sampler(t):
            return d if t < jump else reflector @ d @ reflector

        seeds = [make_null_vector(np.eye(5)[0], 0.0)]
        with pytest.raises(TrackingLost) as lost:
            track_null_frame(sampler, seeds, grid)
        assert str(lost.value) == (
            f"overlap 0.450 below 0.5 for frame member 0 at t = {jump:g}; "
            "refine the time grid")
        with pytest.raises(RuntimeError, match=f"lost at t = {jump:g}$"):
            reference_null_frame(sampler, [s.components for s in seeds], grid)

    @pytest.mark.parametrize("member", [0, 1])
    def test_jump_inside_second_block(self, member):
        # at grid point TRACK_BLOCK + 40 the upper half of the eigenbasis
        # turns into the Hadamard basis: every overlap there is 1/sqrt(8)
        import scipy.linalg
        w = np.eye(16)
        w[8:, 8:] = scipy.linalg.hadamard(8) / np.sqrt(8)
        d = np.diag(np.arange(1.0, 17.0))
        grid = np.linspace(0.0, 1.0, TRACK_BLOCK + 100)
        jump = grid[TRACK_BLOCK + 40]

        def sampler(t):
            return d if t < jump else w @ d @ w.T

        rows = (8, 0) if member == 0 else (0, 8)
        seeds = [make_null_vector(np.eye(16)[k], 0.0) for k in rows]
        with pytest.raises(TrackingLost) as lost:
            track_null_frame(sampler, seeds, grid)
        assert str(lost.value) == (
            f"overlap 0.354 below 0.5 for frame member {member} at "
            f"t = {jump:g}; refine the time grid")
        with pytest.raises(RuntimeError, match=f"lost at t = {jump:g}$"):
            reference_null_frame(sampler, [s.components for s in seeds], grid)


def one_seed_track(h, seed, grid):
    """Track of one eigenvector of the constant Hamiltonian ``h``."""
    frames = track_null_frame(lambda t: h, [make_null_vector(seed, 0.0)], grid)
    return [frame[0] for frame in frames]


def one_seed_tracks(h, seed_a, seed_b):
    """``tracks_for`` of two eigenvectors of the constant Hamiltonian ``h``."""
    return lambda grid: (one_seed_track(h, seed_a, grid),
                         one_seed_track(h, seed_b, grid))


class TestNonadiabaticCoupling:
    def test_constant_hamiltonian_zero_coupling(self):
        rng = np.random.default_rng(13)
        a = crandn(rng, 4, 4)
        h = a + a.conj().T
        _, vecs = np.linalg.eigh(h)
        chi_max, _, _ = converged_max_coupling(
            one_seed_tracks(h, vecs[:, 0], vecs[:, 2]), 0.0, 1.0, n_points=21)
        assert chi_max < 1e-12

    def test_decoupled_partners_below_threshold(self):
        rng = np.random.default_rng(14)
        system = random_feasible_system(rng, 3, 2)
        fields, target, _ = random_designed_fields(rng, system)
        sampler = lambda t: hamiltonian(system, fields, t)
        pairs = []

        def tracks_for(grid):
            lam1 = analytic_lambda1(system, fields, grid[0], target)
            partner = make_null_vector(intermediate_null_seeds(fields)[0],
                                       grid[0], system)
            frames = track_null_frame(sampler, [lam1, partner], grid,
                                      system=system)
            pairs.append((frames[1][0].label.value, frames[1][1].label.value))
            return [f[0] for f in frames], [f[1] for f in frames]

        chi_max, _, _ = converged_max_coupling(tracks_for, -4.0, 5.0,
                                               n_points=241)
        assert chi_max < 1e-8 / fields.width
        assert pairs[0] == ("Lambda1", "Lambda3")

    def test_excess_degeneracy_couples(self):
        # more degenerate states than intermediates: the partner shares
        # support with the transfer carrier and the coupling cannot vanish
        rng = np.random.default_rng(15)
        stokes = crandn(rng, 2, 3) * 50
        system = SystemSpec(2, 3, np.ones(2), stokes)
        target = TargetSpec.basis(3)
        pump = matched_pump_rabi(stokes, target, 1.0)
        fields = FieldSet(pump, stokes, 1.0)

        def tracks_for(grid):
            return analytic_pair_tracks(system, fields, grid, target)

        chi_max, _, converged = converged_max_coupling(
            tracks_for, -4.0, 5.0, n_points=201)
        assert converged
        assert chi_max > 0.01 / fields.width

    def test_pair_tracks_need_stokes_null_direction(self, fig2):
        # fig2's 7 x 7 Stokes block has full column rank
        system, fields = fig2
        with pytest.raises(ValueError, match="no right null direction"):
            analytic_pair_tracks(system, fields, [0.0, 1.0])

    def test_grid_too_short(self):
        h = np.diag([1.0, -1.0]).astype(complex)
        _, vecs = np.linalg.eigh(h)
        with pytest.raises(ValueError, match="grid"):
            converged_max_coupling(one_seed_tracks(h, vecs[:, 0], vecs[:, 1]),
                                   0.0, 1.0, n_points=2)

    def test_tracks_must_match_grid(self):
        def tracks_for(grid):
            track_a, track_b = constant_tracks(grid)
            return track_a[:-1], track_b[:-1]

        with pytest.raises(ValueError, match="tracks and grid must have "
                                             "equal length"):
            converged_max_coupling(tracks_for, 0.0, 1.0, n_points=5)

    def test_rejects_non_orthonormal_pair(self):
        v = np.array([1.0, 0.0], dtype=complex)

        def tracks_for(grid):
            track = [make_null_vector(v, t) for t in grid]
            return track, track

        with pytest.raises(ValueError, match="orthonormal"):
            converged_max_coupling(tracks_for, 0.0, 1.0, n_points=5)


def constant_tracks(grid):
    """Two fixed orthonormal tracks on ``grid``: their coupling is zero."""
    e0, e1 = np.eye(2, dtype=complex)
    return ([make_null_vector(e0, t) for t in grid],
            [make_null_vector(e1, t) for t in grid])


class TestCouplingInputs:
    """A grid or a coupling that is not a number is an error, never a pass."""

    @pytest.mark.parametrize("grid", [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                      [0.0, math.nan, 2.0],
                                      [0.0, 1.0, math.inf]])
    def test_rejects_bad_grid(self, grid):
        # the check every grid of converged_max_coupling passes before tracking
        with pytest.raises(ValueError, match="strictly increasing"):
            nullspace._time_grid(grid)

    @pytest.mark.parametrize("window", [(1.0, 0.0), (0.0, math.nan),
                                        (math.nan, 1.0)])
    def test_rejects_bad_window(self, window):
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="strictly increasing"):
                converged_max_coupling(constant_tracks, *window)

    def test_rejects_infinite_window(self):
        # np.linspace(0, inf) starts [nan, inf, ...]
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="strictly increasing"):
                converged_max_coupling(constant_tracks, 0.0, math.inf)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            converged_max_coupling(constant_tracks, 1.0, 1.0)

    def test_constant_tracks_converge_to_zero(self):
        assert converged_max_coupling(constant_tracks, 0.0, 1.0) == (
            0.0, 401, True)

    def test_overflowing_difference_rejected(self):
        # steps this small overflow the central difference to a NaN coupling
        with np.errstate(over="ignore", invalid="ignore"):
            chi_max, _, converged = converged_max_coupling(
                constant_tracks, 0.0, 1e-310, n_points=11)
        assert math.isnan(chi_max)
        assert not converged

    def test_nan_inside_grid_is_not_skipped(self, monkeypatch):
        # Python's max() keeps 0.3 here; a NaN anywhere must reach the caller
        monkeypatch.setattr(nullspace, "_coupling_chi",
                            lambda a, b, grid: np.array([0.1, math.nan, 0.3]))
        chi_max, _, converged = converged_max_coupling(
            constant_tracks, 0.0, 1.0)
        assert math.isnan(chi_max)
        assert not converged


def recording(tracks_for, grids):
    """``tracks_for`` that also appends every grid it is asked for."""
    def wrapped(grid):
        grids.append(grid)
        return tracks_for(grid)
    return wrapped


def separate_grids_max_coupling(tracks_for, t_start, t_end, n_points=201,
                                atol=1e-15):
    """Reference refinement that tracks every grid size from scratch.

    Grids of n, 2n - 1, 4n - 3, ... points; each maximum is compared with
    the maximum of the grid before it.
    """
    previous = None
    points = n_points
    for _ in range(nullspace.MAX_DOUBLINGS + 1):
        grid = nullspace._time_grid(np.linspace(t_start, t_end, points))
        chi_max = float(np.max(
            nullspace._coupling_chi(*tracks_for(grid), grid)))
        if previous is not None and abs(chi_max - previous) <= max(
                nullspace.COUPLING_REL_CHANGE * chi_max, atol):
            return chi_max, points, True
        previous = chi_max
        points = 2 * points - 1
    return previous, (points + 1) // 2, False


def excess_degeneracy_tracks():
    """Explicit-gauge carrier/partner tracks of a seeded M > N system."""
    rng = np.random.default_rng(15)
    stokes = crandn(rng, 2, 3) * 50
    system = SystemSpec(2, 3, np.ones(2), stokes)
    target = TargetSpec.basis(3)
    fields = FieldSet(matched_pump_rabi(stokes, target, 1.0), stokes, 1.0)
    return lambda grid: analytic_pair_tracks(system, fields, grid, target)


class TestNestedRefinement:
    """Each grid is tracked once; the coarse maximum comes from the fine track."""

    def test_seeded_system_tracks_nested_grids_once(self):
        rng = np.random.default_rng(11)
        system = random_feasible_system(rng, 3, 2)
        fields, target, _ = random_designed_fields(rng, system)
        sampler = lambda t: hamiltonian(system, fields, t)

        def tracks_for(grid):
            lam1 = analytic_lambda1(system, fields, grid[0], target)
            partner = make_null_vector(intermediate_null_seeds(fields)[0],
                                       grid[0], system)
            frames = track_null_frame(sampler, [lam1, partner], grid,
                                      system=system)
            return [f[0] for f in frames], [f[1] for f in frames]

        grids = []
        _, points_used, _ = converged_max_coupling(
            recording(tracks_for, grids), -4.0, 5.0, n_points=201)
        sizes = [grid.size for grid in grids]
        # roundoff-level coupling never settles to 1e-15: several grids
        assert len(sizes) > 1
        assert sizes == [400 * 2 ** k + 1 for k in range(len(sizes))]
        assert points_used == sizes[-1]
        for coarse, fine in zip(grids, grids[1:]):
            assert np.array_equal(fine[::2], coarse)

    @pytest.mark.parametrize("n_points, atol", [
        (3, 1e-15), (5, 1e-15), (11, 0.0), (201, 1e-15), (201, 1e-2)])
    def test_excess_degeneracy_matches_separate_grids(self, n_points, atol):
        tracks_for = excess_degeneracy_tracks()
        assert converged_max_coupling(
            tracks_for, -4.0, 5.0, n_points=n_points, atol=atol) == (
            separate_grids_max_coupling(
                tracks_for, -4.0, 5.0, n_points=n_points, atol=atol))

    @pytest.mark.parametrize("n_points", [3, 11, 201])
    def test_constant_tracks_match_separate_grids(self, n_points):
        assert converged_max_coupling(
            constant_tracks, 0.0, 1.0, n_points=n_points) == (
            separate_grids_max_coupling(
                constant_tracks, 0.0, 1.0, n_points=n_points))

    def test_nan_stops_refinement(self):
        grids = []
        with np.errstate(over="ignore", invalid="ignore"):
            chi_max, points_used, converged = converged_max_coupling(
                recording(constant_tracks, grids), 0.0, 1e-310, n_points=11)
        assert math.isnan(chi_max)
        assert (points_used, converged) == (21, False)
        assert [grid.size for grid in grids] == [21]

    @pytest.mark.parametrize("n_points", [-1, 0, 1, 2])
    def test_short_grid_rejected_before_tracking(self, n_points):
        grids = []
        with pytest.raises(ValueError, match="grid"):
            converged_max_coupling(recording(constant_tracks, grids),
                                   0.0, 1.0, n_points=n_points)
        assert grids == []


class TestPackaging:
    """What tracking and the vector constructors hand out."""

    def test_tracked_components_are_read_only(self, fig2):
        system, fields = fig2
        grid = np.linspace(-4.0, 5.0, 2 * TRACK_BLOCK + 7)
        seed = analytic_lambda1(system, fields, grid[0])
        frames = track_null_frame(lambda t: hamiltonian(system, fields, t),
                                  [seed], grid, system=system)
        for frame in frames:
            assert not frame[0].components.flags.writeable
        with pytest.raises(ValueError):
            frames[3][0].components[0] = 1.0

    def test_tracked_vectors_are_rows_of_one_stack(self):
        rng = np.random.default_rng(33)
        system = random_feasible_system(rng, 3, 2)
        fields, target, _ = random_designed_fields(rng, system)
        grid = np.linspace(-4.0, 5.0, TRACK_BLOCK + 9)
        seeds = [analytic_lambda1(system, fields, grid[0], target)]
        seeds += [make_null_vector(v, grid[0], system)
                  for v in intermediate_null_seeds(fields)]
        frames = track_null_frame(lambda t: hamiltonian(system, fields, t),
                                  seeds, grid, system=system)
        stack = frames[0][0].components.base
        assert stack.shape == (grid.size, len(seeds), system.dim)
        assert not stack.flags.writeable
        for g, frame in enumerate(frames):
            for k, vec in enumerate(frame):
                assert isinstance(vec, StateVector)
                assert vec.time == grid[g]
                assert vec.components.base is stack
                assert np.shares_memory(vec.components, stack[g, k])

    def test_node_profile_rule(self):
        rng = np.random.default_rng(32)
        system = random_feasible_system(rng, 3, 2)
        fields, target, _ = random_designed_fields(rng, system)
        grid = np.linspace(-4.0, 5.0, 61)
        lam1 = analytic_lambda1(system, fields, grid[0], target)
        seeds = [lam1] + [make_null_vector(v, grid[0], system)
                          for v in intermediate_null_seeds(fields)]
        frames = track_null_frame(lambda t: hamiltonian(system, fields, t),
                                  seeds, grid, system=system)
        h = hamiltonian(system, fields, 0.3)
        stokes = crandn(rng, 2, 3) * 50
        excess = SystemSpec(2, 3, np.ones(2), stokes)
        excess_fields = FieldSet(
            matched_pump_rabi(stokes, TargetSpec.basis(3), 1.0), stokes, 1.0)
        carriers, partners = analytic_pair_tracks(
            excess, excess_fields, grid[:5], TargetSpec.basis(3))
        vectors = ([make_null_vector(np.array([1.0, 1e-11, 0.5]), 0.0)]
                   + seeds
                   + numeric_null_space(h, system=system, time=0.3)
                   + [v for frame in frames for v in frame]
                   + carriers + partners)
        for vec in vectors:
            assert np.array_equal(vec.node_profile,
                                  np.abs(vec.components) < NODE_TOL)
        assert lam1.node_profile.sum() == (
            system.n_intermediate + system.n_degenerate - 1)


def track_counting_post_init():
    """Track a seeded 5/2 frame across a block boundary.

    Returns the frames and how often ``StateVector.__post_init__`` ran during
    tracking alone (the seeds are built before counting starts).
    """
    rng = np.random.default_rng(52)
    system = random_feasible_system(rng, 5, 2)
    fields, target, _ = random_designed_fields(rng, system)
    grid = np.linspace(-4.0, 5.0, TRACK_BLOCK + 9)
    seeds = [analytic_lambda1(system, fields, grid[0], target)]
    seeds += [make_null_vector(v, grid[0], system)
              for v in intermediate_null_seeds(fields)]
    calls = []
    post_init = StateVector.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StateVector, "__post_init__", counting)
        frames = track_null_frame(lambda t: hamiltonian(system, fields, t),
                                  seeds, grid, system=system)
    return grid, frames, len(calls)


class TestTrackedVectorConstruction:
    def test_no_post_init_while_tracking(self):
        grid, frames, calls = track_counting_post_init()
        assert len(frames) == grid.size > TRACK_BLOCK
        assert len(frames[0]) == 4  # the carrier and three partners
        assert calls == 0

    def test_equal_to_public_constructor(self):
        grid, frames, _ = track_counting_post_init()
        stack = frames[0][0].components.base
        for g, frame in enumerate(frames):
            for k, vec in enumerate(frame):
                rebuilt = NullVector(vec.components, vec.time, label=vec.label)
                assert type(vec) is NullVector
                assert type(vec.time) is float and vec.time == grid[g]
                assert vec.label is rebuilt.label
                assert np.array_equal(rebuilt.components, vec.components)
                assert not np.shares_memory(rebuilt.components, vec.components)
                # the same attribute storage: no larger per-vector dict
                assert sys.getsizeof(vars(vec)) == sys.getsizeof(vars(rebuilt))
                assert rebuilt.time == vec.time
                assert vec.components.base is stack
                assert np.shares_memory(vec.components, stack[g, k])
