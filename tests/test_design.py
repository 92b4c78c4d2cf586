"""Field designer: feasibility, construction, verification, pruning."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import stirapkit.design
import stirapkit.nullspace
from stirapkit import (DesignError, FieldSet, SystemSpec, TargetSpec,
                       analytic_lambda1, builtin_scenario, check_feasibility,
                       design_fields, effective_dipoles, hamiltonian,
                       matched_pump_rabi, numeric_null_space, verify_design)
from stirapkit.design import numerical_rank

from helpers import (crandn, random_designed_fields, random_feasible_system,
                     random_target)


class TestTargetSpec:
    def test_basis_default_is_last(self):
        t = TargetSpec.basis(4)
        assert np.allclose(t.coefficients, [0, 0, 0, 1])

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="unit norm"):
            TargetSpec([1.0, 1.0])
        with pytest.raises(ValueError, match="unit norm"):
            TargetSpec([np.nan, 1.0])

    def test_two_dimensional_rejected(self):
        # a unit-norm matrix passes the norm check and fails the shape check
        for values in ([[0.6, 0.8]], [[0.6], [0.8]], 1.0):
            with pytest.raises(ValueError) as got:
                TargetSpec(values)
            assert str(got.value) == ("target coefficients must be a "
                                      "nonempty 1-d array")

    def test_coefficients_are_a_read_only_copy(self):
        values = np.array([0.6, 0.8j])
        target = TargetSpec(values)
        values[0] = 5.0
        assert np.array_equal(target.coefficients, [0.6, 0.8j])
        assert not target.coefficients.flags.writeable

    def test_basis_index_range(self):
        with pytest.raises(IndexError):
            TargetSpec.basis(3, 4)

    def test_resolve(self):
        assert np.array_equal(TargetSpec.resolve(None, 3).coefficients,
                              TargetSpec.basis(3).coefficients)
        target = TargetSpec.basis(2, 1)
        assert TargetSpec.resolve(target, 2) is target

    def test_every_caller_rejects_a_wrong_length_target(self):
        system = SystemSpec(2, 2, [1, 1], [[1.0, 0.5], [0.3, 1.0]])
        fields = design_fields(system, TargetSpec.basis(2), 1.0, 1.0,
                               [2.0, 2.0])
        wrong = TargetSpec.basis(3)
        message = "target has 3 coefficients, system has 2 degenerate states"
        for call in (lambda: check_feasibility(system, wrong),
                     lambda: effective_dipoles(system, wrong),
                     lambda: verify_design(system, fields, wrong),
                     lambda: analytic_lambda1(system, fields, 0.0, wrong)):
            with pytest.raises(ValueError, match=message):
                call()


class TestEffectiveDipoles:
    def test_basis_target_picks_column(self):
        rng = np.random.default_rng(0)
        system = random_feasible_system(rng, 4, 3)
        eff = effective_dipoles(system, TargetSpec.basis(3))
        assert np.allclose(eff, system.mu_stokes[:, 2])

    def test_decoupled_column_gives_zeros(self):
        mu = np.array([[0.0, 1.0], [0.0, 2.0]])
        system = SystemSpec(2, 2, [1, 1], mu)
        eff = effective_dipoles(system, TargetSpec([1.0, 0.0]))
        assert np.all(eff == 0)

    def test_superposition_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        system = random_feasible_system(rng, 5, 4)
        target = random_target(rng, 4)
        eff = effective_dipoles(system, target)
        # direct summation oracle
        expected = np.array([
            sum(target.coefficients[j] * system.mu_stokes[k, j]
                for j in range(4))
            for k in range(5)
        ])
        assert np.allclose(eff, expected, atol=1e-14)


class TestCheckFeasibility:
    def test_excess_degeneracy_infeasible(self):
        rng = np.random.default_rng(2)
        system = SystemSpec(2, 3, crandn(rng, 2), crandn(rng, 2, 3))
        report = check_feasibility(system, TargetSpec.basis(3))
        assert not report.feasible
        assert any("leakage" in note for note in report.notes)

    def test_identity_block_feasible(self):
        system = SystemSpec(3, 3, [1, 1, 1], np.eye(3))
        report = check_feasibility(system, TargetSpec.basis(3))
        assert report.feasible
        assert report.det_check == pytest.approx(1.0)
        assert report.selected_rows == (1, 2, 3)

    def test_repeated_rows_infeasible(self):
        mu = np.array([[1.0, 2.0], [1.0, 2.0]])
        system = SystemSpec(2, 2, [1, 1], mu)
        report = check_feasibility(system, TargetSpec.basis(2))
        assert not report.feasible

    def test_row_selection_below_full_degeneracy(self):
        # rows 1 and 2 are parallel; a nonsingular 2x2 block must avoid one
        mu = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]])
        system = SystemSpec(3, 2, [1, 1, 1], mu)
        report = check_feasibility(system, TargetSpec.basis(2))
        assert report.feasible
        block = system.mu_stokes[[r - 1 for r in report.selected_rows], :]
        assert abs(np.linalg.det(block)) > 0.1

    def test_singular_block_names_no_rows(self):
        # rank 1 < M = 2: the second pivot falls among roundoff residuals
        system = SystemSpec(3, 2, [1, 1, 1], [[1, 2], [0, 0], [1, 2]])
        report = check_feasibility(system, TargetSpec.basis(2))
        assert not report.feasible
        assert report.selected_rows == ()

    def test_pruned_channels_reported(self):
        mu = np.array([[1.0, 0.0], [1.0, 2.0]])
        system = SystemSpec(2, 2, [1, 1], mu)
        report = check_feasibility(system, TargetSpec.basis(2))
        assert report.pruned_pumps == frozenset({1})


def scipy_pivot_rows(mu, count):
    """First ``count`` pivots of LAPACK's column-pivoted QR of ``mu.T``."""
    _, _, pivots = scipy.linalg.qr(mu.T, pivoting=True)
    return tuple(sorted(int(p) for p in pivots[:count]))


def assert_matches_scipy(monkeypatch, system, target):
    """The report equals the one built on scipy's pivots.

    Without full column rank of the Stokes matrix only the verdict is
    compared: the last pivots then fall among residual norms at roundoff
    level, where LAPACK's choice is no better than any other.
    """
    report = check_feasibility(system, target)
    with monkeypatch.context() as patch:
        patch.setattr(stirapkit.design, "_pivot_rows", scipy_pivot_rows)
        expected = check_feasibility(system, target)
    assert report.feasible == expected.feasible
    assert report.notes == expected.notes
    if np.linalg.matrix_rank(system.mu_stokes) == system.n_degenerate:
        assert report.selected_rows == expected.selected_rows
        assert report.det_check == expected.det_check


def equal_and_zero_rows(rng, n, m, equal=False, zero=False):
    mu = crandn(rng, n, m)
    if equal:
        i, j = rng.choice(n, 2, replace=False)
        mu[j] = mu[i]
    if zero:
        mu[rng.integers(n)] = 0.0
    return SystemSpec(n, m, crandn(rng, n), mu)


class TestPivotSelection:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_builtins(self, monkeypatch, name):
        scenario = builtin_scenario(name)
        assert_matches_scipy(monkeypatch, scenario.system, scenario.target)

    def test_random_blocks(self, monkeypatch):
        rng = np.random.default_rng(31)
        for n in range(2, 8):
            for m in range(1, n + 1):
                for _ in range(4):
                    system = SystemSpec(n, m, crandn(rng, n), crandn(rng, n, m))
                    assert_matches_scipy(monkeypatch, system,
                                         random_target(rng, m))

    def test_equal_rows_tie_follows_lapack_order(self, monkeypatch):
        # rows 1 and 2 tie after row 3 is taken; LAPACK has swapped row 1
        # behind row 2 by then, so row 2 wins, not the lower index
        rng = np.random.default_rng(32)
        a, b = crandn(rng, 2), 3.0 * crandn(rng, 2)
        system = SystemSpec(4, 2, crandn(rng, 4), np.array([a, a, b, 0.5 * a]))
        report = check_feasibility(system, TargetSpec.basis(2))
        assert report.selected_rows == (2, 3)
        assert_matches_scipy(monkeypatch, system, TargetSpec.basis(2))

    @pytest.mark.parametrize("mu", [
        [[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]],
        [[0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, 1.0]],
        [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        [[0.0, 0.0], [0.0, 0.0]],
    ], ids=["equal-around-zero", "zero-and-equal", "zero-between", "all-zero"])
    def test_hand_built_rank_deficient(self, monkeypatch, mu):
        mu = np.array(mu, dtype=complex)
        n, m = mu.shape
        system = SystemSpec(n, m, np.ones(n), mu)
        assert_matches_scipy(monkeypatch, system, TargetSpec.basis(m))

    @pytest.mark.parametrize("equal,zero", [(False, True), (True, False),
                                            (True, True)],
                             ids=["zero-row", "equal-rows", "both"])
    def test_random_rank_deficient(self, monkeypatch, equal, zero):
        rng = np.random.default_rng(33)
        for n in range(2, 8):
            for m in range(1, n + 1):
                for _ in range(4):
                    system = equal_and_zero_rows(rng, n, m, equal, zero)
                    assert_matches_scipy(monkeypatch, system,
                                         random_target(rng, m))


def scaled_system(system, factor):
    """``system`` with every dipole multiplied by ``factor``."""
    return SystemSpec(system.n_intermediate, system.n_degenerate,
                      system.mu_pump * factor, system.mu_stokes * factor)


def square_draw(seed, n):
    rng = np.random.default_rng(seed)
    return SystemSpec(n, n, crandn(rng, n), crandn(rng, n, n))


UNIT_SCALES = (1e-30, 1.0, 1e30)


class TestRankRule:
    """One scale-free rank rule decides every full-rank question."""

    def test_counts_singular_values(self):
        assert numerical_rank(np.eye(4)) == 4
        assert numerical_rank(np.zeros((3, 2))) == 0
        assert numerical_rank([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]) == 1
        assert numerical_rank(np.diag([1.0, 1e-13])) == 1
        assert numerical_rank(np.diag([1e-200, 1e-210])) == 2

    def test_non_finite_singular_values_give_rank_zero(self):
        # finite entries whose largest singular value overflows to inf
        assert numerical_rank(np.full((2, 2), 1.7e308)) == 0

    @pytest.mark.parametrize("n", [64, 128])
    def test_large_square_draws_are_feasible(self, n):
        # |det| falls below 1e-12 of the Hadamard bound near N = 56 for
        # well-conditioned blocks, so a determinant rule calls these singular
        for seed in range(20):
            report = check_feasibility(square_draw(seed, n),
                                       TargetSpec.basis(n))
            assert report.feasible, (n, seed, report.notes)
            assert report.selected_rows == tuple(range(1, n + 1))

    @pytest.mark.parametrize("case", ["fig2", "draw16", "draw64"])
    def test_verdict_and_rows_do_not_depend_on_units(self, case):
        if case == "fig2":
            scenario = builtin_scenario("fig2")
            system, target = scenario.system, scenario.target
        else:
            n = int(case.removeprefix("draw"))
            system, target = square_draw(7, n), TargetSpec.basis(n)
        reports = [check_feasibility(scaled_system(system, factor), target)
                   for factor in UNIT_SCALES]
        assert all(r.feasible for r in reports)
        assert len({r.selected_rows for r in reports}) == 1

    @pytest.mark.parametrize("factor", UNIT_SCALES)
    def test_repeated_rows_infeasible_at_every_scale(self, factor):
        mu = np.array([[1.0, 2.0], [1.0, 2.0]]) * factor
        report = check_feasibility(SystemSpec(2, 2, [factor, factor], mu),
                                   TargetSpec.basis(2))
        assert not report.feasible
        assert report.selected_rows == ()

    def test_overflowing_determinant_is_only_reported(self):
        # det S of fig2's dipoles x1e45 is past the double range; the
        # verdict reads singular values, and no warning is raised
        scenario = builtin_scenario("fig2")
        system = scaled_system(scenario.system, 1e45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_feasibility(system, scenario.target)
        assert report.feasible
        assert report.selected_rows == tuple(range(1, 8))
        assert not np.isfinite(report.det_check)

    @pytest.mark.parametrize("factor", [1.0, 1e150, 1e160, 1e-170])
    def test_pivot_rows_do_not_depend_on_units(self, factor):
        # rows 1 and 2 are parallel; row 2 has the largest norm, and row 3
        # completes it.  Row norms of the raw dipoles overflow past about
        # 1e154 and underflow below about 1e-162
        mu = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, -1.0]]) * factor
        system = SystemSpec(3, 2, [factor] * 3, mu)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_feasibility(system, TargetSpec.basis(2))
        assert report.feasible
        assert report.selected_rows == (2, 3)

    def test_every_reader_calls_the_one_function(self, monkeypatch):
        assert stirapkit.nullspace.numerical_rank is numerical_rank
        scenario = builtin_scenario("fig2")
        system, fields = scenario.system, scenario.resolve_fields()
        stokes = 40.0 * np.array([[1.0, 2.0], [1.0, 2.0]])
        flat = SystemSpec(2, 2, [1.0, 1.0], stokes)
        flat_fields = FieldSet(matched_pump_rabi(stokes, TargetSpec.basis(2)),
                               stokes, 1.0)
        assert check_feasibility(system, scenario.target).feasible
        assert not check_feasibility(flat, TargetSpec.basis(2)).feasible
        analytic_lambda1(system, fields, 0.0)
        with pytest.raises(DesignError, match="rank deficient"):
            analytic_lambda1(flat, flat_fields, 0.0)

        def patch(rank):
            for module in (stirapkit.design, stirapkit.nullspace):
                monkeypatch.setattr(module, "numerical_rank", rank)

        patch(lambda matrix: 0)
        assert not check_feasibility(system, scenario.target).feasible
        with pytest.raises(DesignError, match="rank deficient"):
            analytic_lambda1(system, fields, 0.0)
        patch(lambda matrix: min(np.shape(matrix)))
        assert check_feasibility(flat, TargetSpec.basis(2)).feasible
        analytic_lambda1(flat, flat_fields, 0.0)


class TestDesignFields:
    def test_reference_pump_row(self):
        # with real dipoles, unit ratio and field amplitude 2 the pump peaks
        # must equal the last Stokes column
        from stirapkit import builtin_scenario
        system = builtin_scenario("fig2").system
        fields = design_fields(system, TargetSpec.basis(7), 1.0, 1.0,
                               np.full(7, 2.0))
        assert np.allclose(fields.peak_rabi_pump,
                           [60, 90, 60, 120, 90, 99, 135])
        assert np.allclose(fields.peak_rabi_stokes, system.mu_stokes)

    @pytest.mark.parametrize("phases", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]],
                             ids=["short", "long", "2-d"])
    def test_phase_count_checked(self, phases):
        system = SystemSpec(2, 2, [1, 1], [[1.0, 0.5], [0.3, 1.0]])
        with pytest.raises(ValueError, match=r"need 2 Stokes phases, got "
                                             r"shape \("):
            design_fields(system, TargetSpec.basis(2), 1.0, 1.0, [2.0, 2.0],
                          phases)

    def test_zero_dipoles_prune_pumps(self):
        rng = np.random.default_rng(3)
        mu = np.abs(crandn(rng, 4, 4)) + 0.5
        mu[0, 3] = 0.0
        mu[1, 3] = 0.0
        system = SystemSpec(4, 4, np.ones(4), mu)
        fields = design_fields(system, TargetSpec.basis(4), 1.0, 1.0,
                               np.full(4, 2.0))
        assert fields.peak_rabi_pump[0] == 0.0
        assert fields.peak_rabi_pump[1] == 0.0
        assert np.all(np.abs(fields.peak_rabi_pump[2:]) > 0)

    def test_complex_phase_relation(self):
        # pump phases must cancel the dipole, Stokes and ratio phases:
        # phi_P = -phi_S - arg(mu_pump) - arg(mu_target) - arg(eta)
        rng = np.random.default_rng(4)
        n = 5
        alpha = rng.uniform(0, 2 * np.pi, n)          # target dipole phases
        beta = rng.uniform(0, 2 * np.pi, n)           # pump dipole phases
        phi_s = rng.uniform(0, 2 * np.pi, n)          # Stokes field phases
        eta = 1.3 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        mu_stokes = crandn(rng, n, n)
        mu_stokes[:, -1] = np.abs(mu_stokes[:, -1]) * np.exp(1j * alpha)
        mu_pump = np.abs(crandn(rng, n)) * np.exp(1j * beta)
        system = SystemSpec(n, n, mu_pump, mu_stokes)
        fields = design_fields(system, TargetSpec.basis(n), eta, 1.0,
                               rng.uniform(1.0, 3.0, n), phi_s)
        # recover the physical pump phase from rabi = mu * E * exp(i phi) / 2
        phi_p = np.angle(fields.peak_rabi_pump / mu_pump)
        expected = -phi_s - beta - alpha - np.angle(eta)
        phase_diff = np.exp(1j * (phi_p - expected))
        assert np.allclose(phase_diff, 1.0, atol=1e-12)
        # and the condition itself holds entrywise
        lhs = np.conj(mu_pump * (2 * np.abs(fields.peak_rabi_pump)
                                 / np.abs(mu_pump))
                      * np.exp(1j * phi_p)) / 2
        assert np.allclose(lhs, eta * fields.peak_rabi_stokes[:, -1],
                           atol=1e-10)

    def test_rejects_zero_eta(self):
        system = SystemSpec(2, 2, [1, 1], np.eye(2))
        with pytest.raises(DesignError, match="eta"):
            design_fields(system, TargetSpec.basis(2), 0.0, 1.0, [1.0, 1.0])

    def test_zero_eta_note_is_the_error(self):
        # the report's note is the one verdict on eta; the pump former
        # raises on its own, as it builds no report
        rng = np.random.default_rng(30)
        system = random_feasible_system(rng, 4, 3)
        target = TargetSpec.basis(3)
        with pytest.raises(DesignError) as got:
            design_fields(system, target, 0, 1.0, np.ones(4))
        assert str(got.value) == "eta must be nonzero"
        with pytest.raises(DesignError, match="^eta must be nonzero$"):
            matched_pump_rabi(system.mu_stokes, target, 0)

    def test_rejects_infeasible(self):
        rng = np.random.default_rng(5)
        system = SystemSpec(2, 3, crandn(rng, 2), crandn(rng, 2, 3))
        with pytest.raises(DesignError):
            design_fields(system, TargetSpec.basis(3), 1.0, 1.0, [1.0, 1.0])

    def test_amplitude_validation(self):
        system = SystemSpec(2, 2, [1, 1], np.eye(2))
        with pytest.raises(ValueError):
            design_fields(system, TargetSpec.basis(2), 1.0, 1.0, [1.0])
        with pytest.raises(ValueError):
            design_fields(system, TargetSpec.basis(2), 1.0, 1.0, [-1.0, 1.0])


class TestVerifyDesign:
    def test_designed_fields_verify(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, n + 1))
            system = random_feasible_system(rng, n, m)
            target = random_target(rng, m)
            eta = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fields = design_fields(system, target, eta, 1.0,
                                   rng.uniform(0.5, 2.0, n),
                                   rng.uniform(0, 2 * np.pi, n))
            result = verify_design(system, fields, target)
            assert result.ok
            assert result.residual < 1e-10 * fields.max_rabi
            assert result.eta == pytest.approx(eta, rel=1e-10)

    def test_perturbation_detected(self):
        from stirapkit import builtin_scenario
        scenario = builtin_scenario("fig2")
        pump = scenario.fields.peak_rabi_pump.copy()
        pump[0] *= 1.01
        broken = FieldSet(pump, scenario.fields.peak_rabi_stokes, 1.0)
        result = verify_design(scenario.system, broken)
        assert not result.ok
        # residual is the size of the perturbation, up to the eta refit
        assert result.residual == pytest.approx(0.6, rel=0.2)

    def test_all_zero_pumps_fail(self):
        rng = np.random.default_rng(7)
        system = random_feasible_system(rng, 3, 3)
        fields = FieldSet(np.zeros(3), crandn(rng, 3, 3) * 10, 1.0)
        result = verify_design(system, fields)
        assert not result.ok

    def test_nonzero_pump_on_pruned_channel_fails(self):
        stokes = np.array([[0.0, 0.0], [3.0, 4.0]])  # channel 1 decoupled
        fields = FieldSet([1.0, 4.0], stokes, 1.0)
        system = SystemSpec(2, 2, [1, 1], np.ones((2, 2)))
        result = verify_design(system, fields)
        assert not result.ok
        assert result.pruned == frozenset({1})


class TestPrunedChannels:
    @pytest.mark.parametrize("seed", range(6))
    def test_reports_and_pump_zeros_agree(self, seed):
        # exact zeros and couplings 1e-13 of the largest are one rule's
        # pruned channels, whichever function applies it
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n))
        system = random_feasible_system(rng, n, m)
        index = int(rng.integers(1, m + 1))
        mu = system.mu_stokes.copy()
        column = mu[:, index - 1]
        channels = rng.permutation(n)[:int(rng.integers(2, n))]
        largest = np.abs(np.delete(column, channels)).max()
        column[channels[0]] = 0.0
        column[channels[1:]] = 1e-13 * largest * np.exp(
            1j * rng.uniform(0, 2 * np.pi, channels.size - 1))
        system = SystemSpec(n, m, system.mu_pump, mu)
        target = TargetSpec.basis(m, index)
        expected = {int(k) + 1 for k in channels}

        report = check_feasibility(system, target)
        assert report.feasible
        fields = design_fields(system, target, 1.0, 1.0,
                               rng.uniform(0.5, 1.5, n))
        verdict = verify_design(system, fields, target)
        assert verdict.ok
        zeros = {k + 1 for k in range(n) if fields.peak_rabi_pump[k] == 0}
        assert report.pruned_pumps == verdict.pruned == zeros == expected
        for named in (report.pruned_pumps, verdict.pruned):
            assert all(type(k) is int for k in named)


def scaled_design_case(case):
    """fig2, or a seeded complex design with a complex target."""
    if case == "fig2":
        scenario = builtin_scenario("fig2")
        return scenario.system, scenario.resolve_fields(), scenario.target
    seed, n, m = case
    rng = np.random.default_rng(seed)
    system = random_feasible_system(rng, n, m)
    target = random_target(rng, m)
    fields, _, _ = random_designed_fields(rng, system, target)
    return system, fields, target


SCALED_CASES = ["fig2", (3201, 5, 3), (3202, 6, 6)]


@pytest.mark.parametrize("case", SCALED_CASES, ids=str)
class TestVerifyAtAnyScale:
    """``verify_design`` gives every amplitude scale the verdict of x1."""

    @pytest.mark.parametrize("exponent", [600, -600])
    def test_power_of_two_scale_is_exact(self, case, exponent):
        system, fields, target = scaled_design_case(case)
        base = verify_design(system, fields, target)
        scale = 2.0 ** exponent
        result = verify_design(system, fields.scaled(scale), target)
        assert result.ok is base.ok is True
        assert result.eta == base.eta
        assert result.residual == base.residual * scale
        assert result.pruned == base.pruned

    @pytest.mark.parametrize("scale", [1e200, 1e-300, 2.0 ** -1000])
    def test_far_scales_verify(self, case, scale):
        system, fields, target = scaled_design_case(case)
        base = verify_design(system, fields, target)
        result = verify_design(system, fields.scaled(scale), target)
        assert result.ok
        assert abs(result.eta - base.eta) <= 1e-12 * abs(base.eta)
        assert result.residual < 1e-10 * fields.scaled(scale).max_rabi

    def test_mismatch_still_fails_at_far_scales(self, case):
        system, fields, target = scaled_design_case(case)
        pump = fields.peak_rabi_pump.copy()
        pump[0] *= 1.01
        broken = FieldSet(pump, fields.peak_rabi_stokes, fields.width)
        base = verify_design(system, broken, target)
        assert not base.ok
        for exponent in (600, -600):
            result = verify_design(system, broken.scaled(2.0 ** exponent),
                                   target)
            assert not result.ok
            assert result.eta == base.eta
            assert result.residual == base.residual * 2.0 ** exponent

    def test_closed_form_inherits_the_fit(self, case):
        system, fields, target = scaled_design_case(case)
        for t in (-1.0, 0.5, 2.0):
            want = analytic_lambda1(system, fields, t, target).components
            for exponent in (600, -600):
                got = analytic_lambda1(system, fields.scaled(2.0 ** exponent),
                                       t, target).components
                assert np.array_equal(got, want)


class TestVerifyAtAnyRatio:
    @pytest.mark.parametrize("eta", [1e-5, 1e155, -3e200j])
    def test_far_ratio_verifies_at_any_scale(self, eta):
        # the pumps are eta times the effective couplings: each side is
        # rescaled on its own, or the smaller one's squares underflow
        scenario = builtin_scenario("fig2")
        system, target = scenario.system, scenario.target
        fields = design_fields(system, target, eta, 1.0, np.full(7, 1.0))
        base = verify_design(system, fields, target)
        assert base.ok
        assert abs(base.eta - eta) <= 1e-12 * abs(eta)
        for exponent in (300, -600):
            result = verify_design(system, fields.scaled(2.0 ** exponent),
                                   target)
            assert result.ok
            assert result.eta == base.eta
            assert result.residual == base.residual * 2.0 ** exponent


class TestVerifyNearTheFloatLimit:
    def test_residual_past_the_float_range_reads_infinite(self):
        # every amplitude is finite, but the residual of the first channel,
        # 1.75 x 1.5e308, is not: the verdict is a failure, not an error
        n = 8
        stokes = np.ones((n, 1))
        stokes[0] = -1.0
        system = SystemSpec(n, 1, np.ones(n), np.ones((n, 1)))
        fields = FieldSet(np.full(n, 1.5e308), 1e300 * stokes, 1.0)
        result = verify_design(system, fields)
        assert not result.ok
        assert result.residual == np.inf
        assert result.eta == pytest.approx(0.75 * 1.5e308 / 1e300, rel=1e-12)


class TestDesignProperties:
    def test_node_guarantee(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            system = random_feasible_system(rng, n, n)
            target = random_target(rng, n)
            eta = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            fields = design_fields(system, target, eta, 1.0,
                                   rng.uniform(0.5, 2.0, n))
            t = rng.uniform(-1.0, 2.0)
            vec = analytic_lambda1(system, fields, t, target)
            h = hamiltonian(system, fields, t)
            assert np.linalg.norm(h @ vec.components) <= \
                1e-12 * np.linalg.norm(h, 2)
            assert len(numeric_null_space(h, 1e-9 * fields.max_rabi)) == 1
            # nodes on all intermediates plus the target-orthogonal manifold
            y = vec.components[1 + n:]
            overlap_sq = abs(np.vdot(target.coefficients, y)) ** 2
            assert np.allclose((np.abs(y) ** 2).sum(), overlap_sq, atol=1e-20)
            assert np.all(np.abs(vec.components[1:1 + n]) < 1e-12)

    def test_pruning_consistency(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, n + 1))
            system = random_feasible_system(rng, n, m)
            mu = system.mu_stokes.copy()
            dead = rng.integers(0, n)
            mu[dead, :] = 0.0  # channel coupled to nothing in the manifold
            system = SystemSpec(n, m, system.mu_pump, mu)
            target = random_target(rng, m)
            if not check_feasibility(system, target).feasible:
                continue
            fields = design_fields(system, target, 1.0, 1.0, np.ones(n))
            eff = effective_dipoles(system, target)
            for k in range(n):
                if abs(eff[k]) <= 1e-12 * np.abs(eff).max():
                    assert fields.peak_rabi_pump[k] == 0.0
                else:
                    assert abs(fields.peak_rabi_pump[k]) > 0

    def test_basis_change_equivalence(self):
        # designing in any rotated basis of the degenerate manifold gives
        # identical pump vectors when the target direction is the same state
        rng = np.random.default_rng(10)
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = m + int(rng.integers(0, 3))
            system = random_feasible_system(rng, n, m)
            target = random_target(rng, m)
            q, _ = np.linalg.qr(crandn(rng, m, m))
            rotated_system = SystemSpec(n, m, system.mu_pump,
                                        system.mu_stokes @ q)
            rotated_target = TargetSpec(q.conj().T @ target.coefficients)
            amplitudes = rng.uniform(0.5, 2.0, n)
            f1 = design_fields(system, target, 1.0, 1.0, amplitudes)
            f2 = design_fields(rotated_system, rotated_target, 1.0, 1.0,
                               amplitudes)
            assert np.allclose(f1.peak_rabi_pump, f2.peak_rabi_pump,
                               atol=1e-12 * f1.max_rabi)

    def test_eta_scaling(self):
        rng = np.random.default_rng(11)
        system = random_feasible_system(rng, 4, 4)
        target = random_target(rng, 4)
        amplitudes = rng.uniform(0.5, 2.0, 4)
        base = design_fields(system, target, 1.0, 1.0, amplitudes)
        for scale in (0.5, 2.0, 7.0):
            scaled = design_fields(system, target, scale, 1.0, amplitudes)
            assert np.allclose(scaled.peak_rabi_pump,
                               scale * base.peak_rabi_pump)
            assert verify_design(system, scaled, target).ok

    def test_matched_pump_rabi_matches_designer(self):
        rng = np.random.default_rng(12)
        system = random_feasible_system(rng, 3, 3)
        target = random_target(rng, 3)
        eta = 0.8 - 0.3j
        fields = design_fields(system, target, eta, 1.0,
                               rng.uniform(0.5, 2.0, 3))
        direct = matched_pump_rabi(fields.peak_rabi_stokes, target, eta)
        assert np.allclose(direct, fields.peak_rabi_pump)


class TestReduceChannels:
    # with M < N the transfer also works through the selected rows alone
    def test_reduction_keeps_feasibility(self):
        rng = np.random.default_rng(13)
        system = random_feasible_system(rng, 5, 2)
        target = random_target(rng, 2)
        kept = check_feasibility(system, target).selected_rows
        rows = [k - 1 for k in kept]
        reduced = SystemSpec(len(rows), 2, system.mu_pump[rows],
                             system.mu_stokes[rows, :])
        assert reduced.n_intermediate == 2
        assert len(kept) == 2
        assert check_feasibility(reduced, target).feasible
        assert np.allclose(reduced.mu_stokes, system.mu_stokes[rows, :])

    def test_reduction_rejects_infeasible(self):
        rng = np.random.default_rng(14)
        system = SystemSpec(2, 3, crandn(rng, 2), crandn(rng, 2, 3))
        report = check_feasibility(system, TargetSpec.basis(3))
        assert not report.feasible
        assert report.selected_rows == ()
