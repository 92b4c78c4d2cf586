"""Schrodinger propagation: accuracy, population bookkeeping, ladders."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import stirapkit.propagation
from stirapkit import (FieldSet, PropagationConfig, PropagationError,
                       StateVector, SystemSpec, TargetSpec, Trajectory,
                       analytic_lambda1, builtin_scenario, envelope_pair,
                       ground_state, hamiltonian, matched_pump_rabi,
                       populations, propagate, verify_design)

from helpers import (crandn, named_system_and_fields, nan_solve_ivp,
                     random_designed_fields, random_feasible_system,
                     raw_hamiltonian, rk4_evolve, unreachable_solve_ivp,
                     width_ladder)


def three_level(rabi=60.0):
    system = SystemSpec(1, 1, [1.0], [[1.0]])
    fields = FieldSet([rabi], [[rabi]], 1.0)
    return system, fields


class TestConfig:
    def test_window_order(self):
        with pytest.raises(ValueError):
            PropagationConfig(t_start=2.0, t_end=-2.0)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            PropagationConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            PropagationConfig(output_stride=-0.1)

    def test_sample_count_capped(self):
        # rejected while the config is built, before any grid is allocated
        with pytest.raises(ValueError, match="samples"):
            PropagationConfig(output_stride=1e-300)
        with pytest.raises(ValueError, match="samples"):
            PropagationConfig(t_start=-4.0, t_end=5.0, output_stride=8e-6)
        PropagationConfig(t_start=-4.0, t_end=5.0, output_stride=1e-5)

    def test_max_step_positive(self):
        with pytest.raises(ValueError, match="max_step must be positive"):
            PropagationConfig(max_step=0)

    def test_rel_tol_floor(self):
        # the integrator's own floor is 100 machine epsilons
        floor = 100 * np.finfo(float).eps
        for tiny in (1e-300, 0.99 * floor):
            with pytest.raises(ValueError, match="rel_tol must be at least"):
                PropagationConfig(rel_tol=tiny)
        assert PropagationConfig(rel_tol=floor).rel_tol == floor

    @pytest.mark.parametrize("window", [(-1e200, 5.0), (-4.0, 1e151),
                                        (1e200, 2e200), (-2e200, -1e200)])
    def test_window_past_envelope_range_rejected(self, window):
        # the envelopes square the window's edges, past the float range here
        t_start, t_end = window
        with pytest.raises(ValueError, match="window must lie within"):
            PropagationConfig(t_start=t_start, t_end=t_end,
                              output_stride=(t_end - t_start) / 100)

    def test_farthest_window_fails_in_the_integrator(self):
        # at the bound the envelopes stay finite; the float spacing around
        # t is far above any step, so the run fails as a numerical failure
        system, fields = three_level()
        cfg = PropagationConfig(t_start=-1e150, t_end=5.0, output_stride=1e148)
        with pytest.raises(PropagationError, match="Required step size"):
            propagate(system, fields, ground_state(system), cfg)

    @pytest.mark.parametrize("setting", ["t_start", "t_end", "rel_tol",
                                         "abs_tol", "max_step", "output_stride"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, setting, bad):
        with pytest.raises(ValueError, match="finite"):
            PropagationConfig(**{setting: bad})


class TestRightHandSide:
    @pytest.mark.parametrize("case", ["random-n5-m3", "fig4"])
    def test_matches_raw_hamiltonian(self, case):
        # the stacked kernel against -i H(t) psi, with H(t) assembled from
        # the raw coupling arrays: a complex-phase design with N > M, and
        # fig4's zeroed couplings and pruned pumps
        rng = np.random.default_rng(606)
        if case == "fig4":
            fields = builtin_scenario("fig4").resolve_fields()
        else:
            fields, _, _ = random_designed_fields(
                rng, random_feasible_system(rng, 5, 3), width=1.7)
        rhs = stirapkit.propagation._make_rhs(fields)
        dim = 1 + fields.n_intermediate + fields.n_degenerate
        for t in fields.width * rng.uniform(-4.0, 5.0, 40):
            psi = crandn(rng, dim)
            want = -1j * (raw_hamiltonian(fields.peak_rabi_pump,
                                          fields.peak_rabi_stokes,
                                          fields.width, t) @ psi)
            got = rhs(t, psi)
            assert got.shape == (dim,)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["fig2", "fig3", "fig4", "fig5",
                                      "seed61", "seed62"])
    def test_equals_stacked_contraction(self, case):
        # the row-pair matvec and two-term contraction written with ``@``
        _, fields = named_system_and_fields(case)
        stack = fields.coupling_stack
        dim = stack.shape[-1]
        blocks = (-1j * stack).swapaxes(0, 1).reshape(2 * dim, dim)
        rhs = stirapkit.propagation._make_rhs(fields)
        rng = np.random.default_rng(1901)
        for t in (fields.width * rng.uniform(-5.0, 6.0, 300)).tolist():
            psi = crandn(rng, dim)
            envelopes = np.array(envelope_pair(t, fields.width), dtype=complex)
            want = (blocks @ psi).reshape(dim, 2) @ envelopes
            assert np.array_equal(rhs(t, psi), want)

    def test_each_call_returns_a_fresh_array(self):
        # the step loop keeps f from one step to the next, so the matvec's
        # output buffer must never be what a call returns
        _, fields = named_system_and_fields("fig2")
        rhs = stirapkit.propagation._make_rhs(fields)
        dim = fields.coupling_stack.shape[-1]
        rng = np.random.default_rng(1902)
        first = rhs(0.3, crandn(rng, dim))
        kept = first.copy()
        second = rhs(0.7, crandn(rng, dim))
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)


class TestPropagate:
    def test_zero_fields_constant_state(self):
        system = SystemSpec(2, 2, [0, 0], np.zeros((2, 2)))
        fields = FieldSet([0, 0], np.zeros((2, 2)), 1.0)
        traj = propagate(system, fields, ground_state(system))
        assert np.allclose(traj.states, traj.states[0], atol=1e-12)
        assert np.all(traj.p_f == 0)
        assert traj.max_p_x == 0

    def test_three_level_transfer_and_oracle(self):
        # resonant two-pulse transfer at pulse area 60: population must end
        # in the target, cross-checked against a fixed-step RK4 integrator
        # run at two step sizes
        system, fields = three_level(60.0)
        traj = propagate(system, fields, ground_state(system))
        assert traj.final_p_f > 0.99
        psi_ref = rk4_evolve(fields.peak_rabi_pump, fields.peak_rabi_stokes,
                             1.0, [1, 0, 0], -4.0, 5.0, 40000)
        psi_ref2 = rk4_evolve(fields.peak_rabi_pump, fields.peak_rabi_stokes,
                              1.0, [1, 0, 0], -4.0, 5.0, 80000)
        # oracle self-consistency, then agreement with the adaptive result
        assert np.linalg.norm(psi_ref - psi_ref2) < 1e-7
        assert np.linalg.norm(traj.states[-1] - psi_ref2) < 1e-6

    def test_norm_conservation(self):
        rng = np.random.default_rng(21)
        system = random_feasible_system(rng, 2, 2)
        fields, _, _ = random_designed_fields(rng, system)
        traj = propagate(system, fields, ground_state(system))
        assert traj.max_norm_error < 1e-9
        sums = traj.populations.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-8)

    def test_convergence_under_tolerance_halving(self):
        rng = np.random.default_rng(22)
        system = random_feasible_system(rng, 2, 2)
        fields, _, _ = random_designed_fields(rng, system)
        tight = PropagationConfig(rel_tol=5e-11, abs_tol=5e-11)
        t1 = propagate(system, fields, ground_state(system))
        t2 = propagate(system, fields, ground_state(system), tight)
        assert np.abs(t1.populations[-1] - t2.populations[-1]).max() < 1e-8

    def test_time_reversal(self):
        # forward with the package, backward with an independent DOP853 run
        # on the raw Hamiltonian: the round trip recovers the initial state
        from scipy.integrate import solve_ivp
        rng = np.random.default_rng(23)
        system = random_feasible_system(rng, 2, 2)
        fields, _, _ = random_designed_fields(rng, system)
        traj = propagate(system, fields, ground_state(system))

        def rhs(t, psi):
            return -1j * (raw_hamiltonian(fields.peak_rabi_pump,
                                          fields.peak_rabi_stokes,
                                          fields.width, t) @ psi)

        back = solve_ivp(rhs, (traj.times[-1], traj.times[0]), traj.states[-1],
                         method="DOP853", rtol=1e-10, atol=1e-10,
                         max_step=0.25 * fields.width)
        assert back.success
        initial = np.zeros(system.dim, complex)
        initial[0] = 1.0
        assert np.linalg.norm(back.y[:, -1] - initial) < 1e-7

    def test_adiabatic_state_fidelity(self):
        # the dynamics ride the transfer-carrying dressed state throughout
        scenario = builtin_scenario("fig2")
        system, fields = scenario.system, scenario.fields
        traj = propagate(system, fields, ground_state(system),
                         scenario.propagation)
        for idx in range(0, len(traj.times), 30):
            lam = analytic_lambda1(system, fields, traj.times[idx])
            fidelity = abs(np.vdot(lam.components, traj.states[idx])) ** 2
            assert fidelity >= 0.99

    def test_initial_state_validation(self):
        system, fields = three_level()
        bad = StateVector(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="normalized"):
            propagate(system, fields, bad)

    def test_initial_state_length_checked(self):
        system, fields = three_level()
        with pytest.raises(ValueError, match="must have 3 components"):
            propagate(system, fields, StateVector([1.0, 0.0]))

    def test_integrator_failure_raises(self, monkeypatch):
        def failing_solve_ivp(fun, t_span, y0, **kwargs):
            return SimpleNamespace(success=False, message="step size too small")

        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            failing_solve_ivp)
        system, fields = three_level()
        with pytest.raises(PropagationError,
                           match="integration failed: step size too small"):
            propagate(system, fields, ground_state(system))

    def test_narrow_window_warns(self):
        system, fields = three_level()
        cfg = PropagationConfig(t_start=-1.0, t_end=2.0)
        with pytest.warns(UserWarning, match="window"):
            propagate(system, fields, ground_state(system), cfg)

    # windows in width units, at width 1, where exactly one of the four
    # edge envelope values exceeds EDGE_ENVELOPE_TOL; the value reported is
    # that envelope's, as a test-side Gaussian gives it
    @pytest.mark.parametrize("window, hot", [
        ((-3.0, 6.0), math.exp(-9.0)),     # Stokes at the start
        ((4.5, 10.0), math.exp(-12.25)),   # pump at the start
        ((-10.0, -3.0), math.exp(-9.0)),   # Stokes at the end
        ((-4.0, 4.0), math.exp(-9.0)),     # pump at the end
    ], ids=["stokes-start", "pump-start", "stokes-end", "pump-end"])
    def test_one_hot_edge_warns(self, monkeypatch, window, hot):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        assert hot > stirapkit.propagation.EDGE_ENVELOPE_TOL
        system, fields = three_level()
        cfg = PropagationConfig(t_start=window[0], t_end=window[1])
        with pytest.warns(UserWarning, match=f"reach {hot:.2e} of peak"):
            with pytest.raises(AssertionError, match="integrator was called"):
                propagate(system, fields, ground_state(system), cfg)

    def test_default_window_edges_silent(self, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        system, fields = three_level()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssertionError, match="integrator was called"):
                propagate(system, fields, ground_state(system))

    def test_every_caller_rejects_a_mismatched_field_set(self):
        system = SystemSpec(2, 2, [1, 1], [[1, 1], [1, 1]])
        fields = FieldSet([1.0], [[1.0]], 1.0)
        message = r"field set shaped \(1, 1\) does not match system \(2, 2\)"
        for call in (lambda: hamiltonian(system, fields, 0.0),
                     lambda: verify_design(system, fields),
                     lambda: propagate(system, fields, ground_state(system))):
            with pytest.raises(ValueError, match=message):
                call()

    def test_nan_state_fails(self, monkeypatch):
        # NaN compares false with everything, so it must not pass the norm check
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", nan_solve_ivp)
        system, fields = three_level()
        with pytest.raises(PropagationError, match="norm"):
            propagate(system, fields, ground_state(system))

    def test_non_finite_state_message(self, monkeypatch):
        # tighter tolerances cannot repair a non-finite state
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", nan_solve_ivp)
        system, fields = three_level()
        with pytest.raises(PropagationError) as failure:
            propagate(system, fields, ground_state(system))
        assert "non-finite state" in str(failure.value)
        assert "norm" in str(failure.value)
        assert "tighten" not in str(failure.value)

    def test_sampling_grid(self):
        system, fields = three_level()
        cfg = PropagationConfig(output_stride=0.5)
        traj = propagate(system, fields, ground_state(system), cfg)
        assert len(traj.times) == 19
        assert traj.times[0] == pytest.approx(-4.0)
        assert traj.times[-1] == pytest.approx(5.0)
        assert np.allclose(np.diff(traj.times), 0.5)


def test_overflowing_sample_times_rejected(monkeypatch):
    # a finite width whose window overflows: rejected before the integrator
    # and without a numpy overflow warning
    monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                        unreachable_solve_ivp)
    system = SystemSpec(1, 1, [1.0], [[1.0]])
    fields = FieldSet([60.0], [[60.0]], 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sample times overflow"):
            propagate(system, fields, ground_state(system))


def test_trajectory_exposes_states_not_a_final_state():
    # the last row of ``states`` is the final state; no second accessor
    assert not hasattr(Trajectory, "final_state")


class TestDop853Oracle:
    """The package's DOP853 loop equals ``scipy.integrate.solve_ivp``'s.

    Same right-hand side, window and options on both sides; the sampled
    states must be equal bit for bit, and so must the number of RHS calls.
    """

    @staticmethod
    def both(system, fields, rtol=1e-10, max_step=0.25, n_samples=901):
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        width = fields.width
        times = width * np.linspace(-4.0, 5.0, n_samples)
        psi0 = ground_state(system).components
        options = dict(method="DOP853", rtol=rtol, atol=rtol,
                       max_step=max_step * width, t_eval=times)
        ours = stirapkit.propagation.solve_ivp(
            stirapkit.propagation._make_rhs(fields), (times[0], times[-1]),
            psi0, **options)
        theirs = scipy_solve_ivp(stirapkit.propagation._make_rhs(fields),
                                 (times[0], times[-1]), psi0, **options)
        return ours, theirs

    def assert_same(self, ours, theirs):
        assert ours.success and theirs.success
        assert ours.y.shape == theirs.y.shape
        assert np.array_equal(ours.y, theirs.y)
        assert ours.nfev == theirs.nfev

    def test_fig2(self):
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields)
        self.assert_same(ours, theirs)
        assert ours.nfev == 17_471

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_random_designed_systems(self, seed):
        rng = np.random.default_rng(seed)
        system = random_feasible_system(rng, 5, 3)
        fields, _, _ = random_designed_fields(rng, system)
        self.assert_same(*self.both(system, fields))

    def test_rejected_steps(self):
        # no step cap and a tight tolerance: the controller rejects steps
        from scipy.integrate import DOP853
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields,
                                 rtol=1e-12, max_step=math.inf)
        self.assert_same(ours, theirs)
        # each attempted step costs 12 RHS calls; count the retried ones
        solver = DOP853(stirapkit.propagation._make_rhs(scenario.fields),
                        -4.0, ground_state(scenario.system).components, 5.0,
                        rtol=1e-12, atol=1e-12)
        rejected = 0
        while solver.status == "running":
            before = solver.nfev
            solver.step()
            rejected += (solver.nfev - before) // 12 - 1
        assert rejected > 0

    def test_step_size_underflow_fails_like_scipy(self):
        system, fields = three_level()
        fields = fields.with_width(1e20)
        ours, theirs = self.both(system, fields)
        assert not ours.success and not theirs.success
        assert ours.message == theirs.message
        assert ours.nfev == theirs.nfev

    def test_many_samples_per_step(self):
        # a stride of 1e-4 widths: dozens of samples fall in every step
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields,
                                 n_samples=90_001)
        self.assert_same(ours, theirs)
        # every step costs at least 12 RHS calls, so there are at most
        # nfev / 12 steps: more than 40 samples per step on average
        assert 90_001 / (ours.nfev / 12) > 40

    def test_steps_without_samples(self):
        # a stride of one width: most steps hold no sample, and skip the
        # three dense-output stages
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields,
                                 n_samples=10)
        self.assert_same(ours, theirs)
        assert ours.nfev < 17_471

    def test_more_sampled_steps_than_one_block(self):
        from scipy.integrate import DOP853
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields, rtol=1e-12)
        self.assert_same(ours, theirs)
        # count the steps that hold a sample, on scipy's own step loop
        # (fig2's width is 1, so its times are in width units)
        times = np.linspace(-4.0, 5.0, 901)
        solver = DOP853(stirapkit.propagation._make_rhs(scenario.fields),
                        -4.0, ground_state(scenario.system).components, 5.0,
                        rtol=1e-12, atol=1e-12, max_step=0.25)
        sampled = 0
        while solver.status == "running":
            solver.step()
            sampled += np.any((times > solver.t_old) & (times <= solver.t))
        assert sampled > 2 * stirapkit.propagation._DENSE_BLOCK

    @pytest.mark.parametrize("block", [1, 3])
    def test_block_size_does_not_change_the_samples(self, monkeypatch, block):
        monkeypatch.setattr(stirapkit.propagation, "_DENSE_BLOCK", block)
        scenario = builtin_scenario("fig2")
        self.assert_same(*self.both(scenario.system, scenario.fields))

    @pytest.mark.parametrize("block", [128, 3])
    def test_failure_partway_keeps_the_samples_reached(self, monkeypatch,
                                                       block):
        # y = y0 / (1 - t) blows up at t = 1: the step shrinks below the
        # spacing of the floats there, after half of the samples
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        monkeypatch.setattr(stirapkit.propagation, "_DENSE_BLOCK", block)

        def pole(t, y):
            return y / (1.0 - t)

        options = dict(method="DOP853", rtol=1e-6, atol=1e-6,
                       t_eval=np.linspace(0.0, 2.0, 41))
        y0 = np.array([1.0, 0.5j])
        ours = stirapkit.propagation.solve_ivp(pole, (0.0, 2.0), y0, **options)
        theirs = scipy_solve_ivp(pole, (0.0, 2.0), y0, **options)
        assert not ours.success and not theirs.success
        assert ours.message == theirs.message
        assert ours.nfev == theirs.nfev
        assert ours.y.shape == theirs.y.shape == (2, 20)
        assert np.array_equal(ours.y, theirs.y)


class TestSampleTimes:
    """``t_eval`` outside ``t_span`` or out of order fails as scipy's does."""

    @staticmethod
    def solve(solver, t_eval):
        return solver(lambda t, y: -1j * y, (0.0, 1.0), np.array([1.0 + 0j]),
                      method="DOP853", rtol=1e-8, atol=1e-8, t_eval=t_eval)

    @pytest.mark.parametrize("t_eval, message", [
        ([0.5, 1.0, 2.0], "not within `t_span`"),
        ([-0.5, 0.5], "not within `t_span`"),
        ([0.5, 0.2, 0.9], "not properly sorted"),
        ([0.2, 0.2, 0.9], "not properly sorted")],
        ids=["past-end", "before-start", "unsorted", "repeated"])
    def test_rejected_like_scipy(self, t_eval, message):
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        for solver in (stirapkit.propagation.solve_ivp, scipy_solve_ivp):
            with pytest.raises(ValueError, match=f"Values in `t_eval` are "
                                                 f"{message}"):
                self.solve(solver, t_eval)

    def test_nan_sample_rejected(self):
        # scipy lets a NaN through; it would never be reached
        with pytest.raises(ValueError, match="not within `t_span`"):
            self.solve(stirapkit.propagation.solve_ivp, [0.0, math.nan])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            self.solve(stirapkit.propagation.solve_ivp, [[0.0, 1.0]])


def test_step_size_underflow_is_a_propagation_error():
    # an enormous pulse area at a huge width: the step falls below the
    # spacing of the floats around t long before the window ends
    system = SystemSpec(1, 1, [1], [[1]])
    with pytest.raises(PropagationError) as got:
        propagate(system, FieldSet([60], [[60]], 1e20), ground_state(system))
    assert str(got.value) == ("integration failed: Required step size is "
                              "less than spacing between numbers.")


class TestPopulations:
    def test_initial_state_all_zero(self):
        system, fields = three_level()
        traj = propagate(system, fields, ground_state(system))
        p_x, p_y, p_f = populations(traj, TargetSpec.basis(1))
        assert p_x[0] == pytest.approx(0.0, abs=1e-12)
        assert p_y[0] == pytest.approx(0.0, abs=1e-12)
        assert p_f[0] == pytest.approx(0.0, abs=1e-12)

    def test_pure_target_state(self):
        components = np.zeros(5, complex)
        components[-1] = 1.0
        # build a trajectory-like check through the public split
        system = SystemSpec(2, 2, [1, 1], np.ones((2, 2)))
        fields = FieldSet([0, 0], np.zeros((2, 2)), 1.0)
        traj = propagate(system, fields, StateVector(components))
        assert traj.p_f[0] == pytest.approx(1.0)
        assert traj.p_y[0] == pytest.approx(0.0, abs=1e-12)

    def test_superposition_target_projection(self):
        # state equals the target direction inside the manifold: complement
        # population vanishes even though two basis states are occupied
        system = SystemSpec(1, 2, [1.0], [[1.0, 1.0]])
        fields = FieldSet([0.0], [[0.0, 0.0]], 1.0)
        components = np.zeros(4, complex)
        components[2] = components[3] = 1 / np.sqrt(2)
        traj = propagate(system, fields, StateVector(components))
        target = TargetSpec([1 / np.sqrt(2), 1 / np.sqrt(2)])
        p_x, p_y, p_f = populations(traj, target)
        assert p_f[0] == pytest.approx(1.0)
        assert p_y[0] == pytest.approx(0.0, abs=1e-12)

    def test_split_matches_projection(self):
        # a fig2-sized trajectory: 901 samples, seven intermediates, seven
        # degenerate states
        rng = np.random.default_rng(31)
        states = crandn(rng, 901, 15)
        coefficients = crandn(rng, 7)
        target = TargetSpec(coefficients / np.linalg.norm(coefficients))
        p_x, p_y, p_f = stirapkit.propagation._split_populations(
            states, 7, 7, target)
        y = states[:, 8:]
        expected = np.abs(y @ target.coefficients.conj()) ** 2
        assert np.allclose(p_f, expected, rtol=1e-13, atol=0.0)
        assert np.allclose(p_y, (np.abs(y) ** 2).sum(axis=1) - expected,
                           rtol=0.0, atol=1e-12)
        assert np.allclose(p_x, (np.abs(states[:, 1:8]) ** 2).sum(axis=1))

    def test_target_length_checked(self):
        system, fields = three_level()
        traj = propagate(system, fields, ground_state(system))
        with pytest.raises(ValueError):
            populations(traj, TargetSpec.basis(2))


class TestAdiabaticityReport:
    # the width ladder is ``sweep --axis width`` over x(1, 2, 4)
    def test_wider_pulses_transfer_better(self):
        rng = np.random.default_rng(24)
        system = random_feasible_system(rng, 2, 2)
        fields, target, _ = random_designed_fields(rng, system,
                                                   rabi_scale=25.0)
        rungs = width_ladder(system, fields, target)
        infidelities = [1.0 - r.final_p_f for r in rungs]
        assert len(rungs) == 3
        assert all(b <= a for a, b in zip(infidelities, infidelities[1:]))
        assert infidelities[-1] < infidelities[0]

    def test_excess_degeneracy_leakage_floor(self):
        # with more degenerate states than intermediates the in-manifold
        # leakage survives arbitrary pulse stretching
        rng = np.random.default_rng(25)
        stokes = crandn(rng, 2, 3)
        stokes *= 40.0 / np.abs(stokes).mean()
        pump = matched_pump_rabi(stokes, TargetSpec.basis(3), 1.0)
        fields = FieldSet(pump, stokes, 1.0)
        system = SystemSpec(2, 3, np.ones(2), stokes)
        leaks = [r.max_p_y for r in width_ladder(system, fields)]
        floor = min(leaks) / 2.0
        assert floor > 1e-6
        assert all(leak >= floor for leak in leaks)
