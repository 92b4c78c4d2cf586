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

    def test_explicit_max_step_count_capped(self):
        # a step cap that needs 9e9 steps across the window is bad input,
        # not a run that never ends; no cap keeps the default of 0.25
        with pytest.raises(ValueError) as got:
            PropagationConfig(max_step=1e-9)
        assert str(got.value) == ("max_step asks for more than 1,000,000 "
                                  "steps across the window")
        with pytest.raises(ValueError, match="max_step asks for more"):
            PropagationConfig(t_start=-4.0, t_end=5.0, max_step=8e-6)
        PropagationConfig(t_start=-4.0, t_end=5.0, max_step=1e-5)
        assert PropagationConfig(t_start=-1e150, t_end=5.0,
                                 output_stride=1e148).max_step is None

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

    @pytest.mark.parametrize("setting", ["t_start", "t_end", "rel_tol",
                                         "abs_tol", "max_step", "output_stride"])
    @pytest.mark.parametrize("bad", [math.inf, 10 ** 400],
                             ids=["inf", "huge-int"])
    def test_non_finite_message_names_the_setting(self, setting, bad):
        with pytest.raises(ValueError) as got:
            PropagationConfig(**{setting: bad})
        assert str(got.value) == f"{setting} must be finite, got inf"

    def test_default_step_count_capped(self):
        # with no max_step, the default cap of 0.25 widths may ask for no
        # more steps than an explicit one: this window needs 4e8 of them
        with pytest.raises(ValueError) as got:
            PropagationConfig(t_start=-1e8, t_end=5.0, output_stride=1e6)
        assert str(got.value) == ("the window [-1e+08, 5] needs more than "
                                  "1,000,000 steps of 0.25 widths")
        with pytest.raises(ValueError, match="needs more than 1,000,000"):
            PropagationConfig(t_start=-4.0, t_end=249_996.5, output_stride=1.0)
        PropagationConfig(t_start=-4.0, t_end=249_996.0, output_stride=1.0)
        # a start 2**47 widths out is still reached step by step
        with pytest.raises(ValueError, match="needs more than 1,000,000"):
            PropagationConfig(t_start=-2.0 ** 47, t_end=5.0,
                              output_stride=2.0 ** 40)

    @pytest.mark.parametrize("width", [1.0, 1.5, 1.999, 3e-3, 7e5])
    @pytest.mark.parametrize("t_start", [-2.0 ** 48, -1.5 * 2.0 ** 48, -1e20])
    def test_start_past_the_step_cap_fails_in_the_integrator(self, t_start,
                                                             width):
        # ten float spacings at the start exceed twice the cap, so the
        # window is accepted, and at any width the integrator's smallest
        # step outgrows the cap by its second step
        cfg = PropagationConfig(t_start=t_start, t_end=5.0,
                                output_stride=-t_start / 100)
        assert cfg.max_step is None
        calls = []
        original = stirapkit.propagation.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            def counted(t, y):
                calls.append(t)
                return fun(t, y)
            return original(counted, *args, **kwargs)

        system, fields = three_level()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stirapkit.propagation, "solve_ivp", solve_ivp)
            with pytest.raises(PropagationError, match="Required step size"):
                propagate(system, fields.with_width(width),
                          ground_state(system), cfg)
        # f and the starting step's probe, then at most one trial step and
        # its dense output
        assert len(calls) <= 2 + 12 + 3

    @pytest.mark.parametrize("t_start, stride, accepted", [
        (-4.0, 0.01, True), (-2.0 ** 47, 2.0 ** 40, False),
        (-2.0 ** 48, 2.0 ** 41, True), (-1e20, 1e18, True)])
    def test_written_out_cap_judged_like_the_default(self, t_start, stride,
                                                     accepted):
        # one step-count rule, float-spacing exemption included, for the
        # default cap and for the same cap written out; each keeps its message
        def config(max_step):
            return PropagationConfig(t_start=t_start, t_end=5.0,
                                     output_stride=stride, max_step=max_step)

        if accepted:
            assert config(None).max_step is None
            assert config(0.25).max_step == 0.25
            return
        with pytest.raises(ValueError, match="needs more than 1,000,000"):
            config(None)
        with pytest.raises(ValueError, match="max_step asks for more than"):
            config(0.25)

    @pytest.mark.parametrize("max_step", [None, 0.25])
    def test_written_out_cap_fails_in_the_integrator(self, max_step):
        # 2**48 widths out, the default cap and the same cap written out
        # both reach the integrator, which fails by its second trial step
        cfg = PropagationConfig(t_start=-2.0 ** 48, t_end=5.0,
                                output_stride=2.0 ** 41, max_step=max_step)
        calls = []
        original = stirapkit.propagation.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            def counted(t, y):
                calls.append(t)
                return fun(t, y)
            return original(counted, *args, **kwargs)

        system, fields = three_level()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stirapkit.propagation, "solve_ivp", solve_ivp)
            with pytest.raises(PropagationError, match="Required step size"):
                propagate(system, fields, ground_state(system), cfg)
        assert len(calls) <= 2 + 12 + 3


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
        rhs = stirapkit.propagation._LinearRhs(fields)
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
        rhs = stirapkit.propagation._LinearRhs(fields)
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
        rhs = stirapkit.propagation._LinearRhs(fields)
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


def test_collapsing_sample_times_rejected(monkeypatch):
    # the smallest positive width: neighbouring samples round to one float,
    # and the message names the width, not the integrator's t_eval
    monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                        unreachable_solve_ivp)
    system = SystemSpec(1, 1, [1.0], [[1.0]])
    fields = FieldSet([60.0], [[60.0]], 5e-324)
    with pytest.raises(ValueError) as got:
        propagate(system, fields, ground_state(system))
    assert str(got.value) == ("sample times are not strictly increasing: the "
                              "pulse width 4.94066e-324 is too small for the "
                              "output stride 0.01")


@pytest.mark.parametrize("width", [1e-320, 1e-310])
def test_subnormal_sample_times_rejected(monkeypatch, width):
    # strictly increasing, but each time rounds to a multiple of 5e-324, so
    # the grid is uneven: rejected before the integrator, naming the width
    monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                        unreachable_solve_ivp)
    system = SystemSpec(1, 1, [1.0], [[1.0]])
    fields = FieldSet([60.0], [[60.0]], width)
    with pytest.raises(ValueError) as got:
        propagate(system, fields, ground_state(system))
    assert str(got.value) == (
        "sample times fall below 2.22507e-308, the smallest normal float: "
        f"the pulse width {width:g} is too small for the output stride 0.01")


def test_smallest_normal_sample_times_accepted(monkeypatch):
    # at width 1e-300 every nonzero sample time is a normal float
    monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                        unreachable_solve_ivp)
    system = SystemSpec(1, 1, [1.0], [[1.0]])
    fields = FieldSet([60.0], [[60.0]], 1e-300)
    with pytest.raises(AssertionError, match="integrator was called"):
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
    def both(system, fields, rtol=1e-10, max_step=0.25, n_samples=901,
             wrap=None):
        """Both loops' results; ``wrap``, if given, wraps each side's RHS."""
        from scipy.integrate import solve_ivp as scipy_solve_ivp
        width = fields.width
        times = width * np.linspace(-4.0, 5.0, n_samples)
        psi0 = ground_state(system).components
        options = dict(method="DOP853", rtol=rtol, atol=rtol,
                       max_step=max_step * width, t_eval=times)

        def rhs():
            fun = stirapkit.propagation._LinearRhs(fields)
            return fun if wrap is None else wrap(fun)

        ours = stirapkit.propagation.solve_ivp(
            rhs(), (times[0], times[-1]), psi0, **options)
        theirs = scipy_solve_ivp(rhs(), (times[0], times[-1]), psi0,
                                 **options)
        return ours, theirs

    def assert_same(self, ours, theirs):
        assert ours.success and theirs.success
        assert ours.y.shape == theirs.y.shape
        assert np.array_equal(ours.y, theirs.y)
        assert ours.nfev == theirs.nfev

    def test_tableau_equals_scipys(self):
        # every literal parses to scipy's double; the dropped tail of each
        # row of A and A_EXTRA is zero in scipy's table
        from scipy.integrate import DOP853
        prop = stirapkit.propagation

        def same(ours, theirs):
            ours = np.asarray(ours)
            assert not np.imag(ours).any()
            assert np.array_equal(np.real(ours), theirs)

        n = DOP853.n_stages
        assert len(prop.A) == len(prop.C) == n - 1
        for s, row in enumerate(prop.A, start=1):
            assert row.dtype == complex
            same(row, DOP853.A[s, :s])
            assert not DOP853.A[s, s:].any()
        assert not DOP853.A[0].any() and DOP853.C[0] == 0
        assert all(type(c) is float for c in prop.C + prop.C_EXTRA)
        same(prop.C, DOP853.C[1:])
        for ours, theirs in [(prop.B, DOP853.B), (prop.E3, DOP853.E3),
                             (prop.E5, DOP853.E5), (prop.D, DOP853.D)]:
            assert ours.dtype == complex
            same(ours, theirs)
        assert len(prop.A_EXTRA) == len(DOP853.A_EXTRA)
        for s, (row, theirs) in enumerate(zip(prop.A_EXTRA, DOP853.A_EXTRA),
                                          start=n + 1):
            assert row.dtype == complex
            same(row, theirs[:s])
            assert not theirs[s:].any()
        same(prop.C_EXTRA, DOP853.C_EXTRA)
        assert prop.ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)

    def test_fig2(self):
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields)
        self.assert_same(ours, theirs)
        assert ours.nfev == 17_471

    @pytest.mark.parametrize("case, nfev", [
        ("fig3", 17_060), ("fig4", 16_094), ("fig5", 16_502)])
    def test_figures(self, case, nfev):
        # overridden and zeroed couplings (fig3, fig4) and pruned pumps
        # (fig4, fig5); each scenario runs the default window and
        # tolerances, so the counts are those of ``reproduce``
        system, fields = named_system_and_fields(case)
        ours, theirs = self.both(system, fields)
        self.assert_same(ours, theirs)
        assert ours.nfev == nfev

    @pytest.mark.parametrize("seed", [3, 5, 8])
    def test_random_designed_systems(self, seed):
        rng = np.random.default_rng(seed)
        system = random_feasible_system(rng, 5, 3)
        fields, _, _ = random_designed_fields(rng, system)
        self.assert_same(*self.both(system, fields))

    @pytest.mark.parametrize("case", ["fig2", "seed3"])
    def test_stage_inputs_equal_scipys(self, case):
        # every (t, y) handed to the RHS, copied as it arrives: a stage
        # input row written before the RHS has read it shows up here
        calls = []

        def recording(rhs):
            seen = []
            calls.append(seen)

            def fun(t, y):
                seen.append((t, y.copy()))
                return rhs(t, y)
            return fun

        system, fields = named_system_and_fields(case)
        self.assert_same(*self.both(system, fields, wrap=recording))
        ours, theirs = calls
        assert len(ours) == len(theirs) > 10_000
        for (t, y), (t_ref, y_ref) in zip(ours, theirs):
            assert t == t_ref
            assert np.array_equal(y, y_ref)

    @pytest.mark.parametrize("block", [1, 3, 128])
    def test_complex_stage_inputs_equal_scipys(self, monkeypatch, block):
        # a plain callable's dense-output stages run when their step is
        # recorded, so a complex design's calls come in scipy's order
        # whether a block holds one step or many
        monkeypatch.setattr(stirapkit.propagation, "_DENSE_BLOCK", block)
        _, fields = named_system_and_fields("seed71")
        assert np.iscomplex(fields.peak_rabi_stokes).all()
        self.test_stage_inputs_equal_scipys("seed71")

    def test_rejected_steps(self):
        # no step cap and a tight tolerance: the controller rejects steps
        from scipy.integrate import DOP853
        scenario = builtin_scenario("fig2")
        ours, theirs = self.both(scenario.system, scenario.fields,
                                 rtol=1e-12, max_step=math.inf)
        self.assert_same(ours, theirs)
        # each attempted step costs 12 RHS calls; count the retried ones
        solver = DOP853(stirapkit.propagation._LinearRhs(scenario.fields),
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
        solver = DOP853(stirapkit.propagation._LinearRhs(scenario.fields),
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

    # fig2-fig5 have real couplings; these seeded designs are complex, one
    # with M < N and one with M = N
    COMPLEX_CASES = ["seed71", "seed73-4x4"]

    @pytest.mark.parametrize("case", COMPLEX_CASES)
    @pytest.mark.parametrize("block", [1, 3, 128])
    def test_complex_designs_at_every_block_size(self, monkeypatch, case,
                                                 block):
        monkeypatch.setattr(stirapkit.propagation, "_DENSE_BLOCK", block)
        system, fields = named_system_and_fields(case)
        assert np.iscomplex(fields.peak_rabi_stokes).all()
        self.assert_same(*self.both(system, fields))

    @pytest.mark.parametrize("case", COMPLEX_CASES)
    def test_complex_designs_with_many_samples_per_step(self, case):
        system, fields = named_system_and_fields(case)
        ours, theirs = self.both(system, fields, n_samples=90_001)
        self.assert_same(ours, theirs)
        # more than 40 samples per step on average, as in
        # test_many_samples_per_step
        assert 90_001 / (ours.nfev / 12) > 40

    @pytest.mark.parametrize("case", COMPLEX_CASES)
    def test_complex_designs_with_rejected_steps(self, case):
        # no step cap and a tight tolerance: scipy's loop retries steps
        system, fields = named_system_and_fields(case)
        assert TestBatchedStages.rejected_steps(fields, 1e-12, math.inf) > 0
        self.assert_same(*self.both(system, fields, rtol=1e-12,
                                    max_step=math.inf))

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


class TestBatchedStages:
    """``solve_ivp`` evaluates the package's own right-hand side by its parts.

    Handed ``_LinearRhs(fields)``, the loop computes a step's stage envelopes
    in one ``np.exp`` call and writes each stage's product into its K row;
    any other callable is called once per stage.  Both give the same bits.
    """

    @staticmethod
    def solve(fields, fun, rtol=1e-10, max_step=0.25):
        times = fields.width * np.linspace(-4.0, 5.0, 901)
        psi0 = np.zeros(fields.coupling_stack.shape[-1], dtype=complex)
        psi0[0] = 1.0
        return stirapkit.propagation.solve_ivp(
            fun, (times[0], times[-1]), psi0, method="DOP853", rtol=rtol,
            atol=rtol, max_step=max_step * fields.width, t_eval=times)

    def assert_same_as_plain(self, fields, **options):
        rhs = stirapkit.propagation._LinearRhs(fields)
        batched = self.solve(fields, rhs, **options)
        plain = self.solve(fields, lambda t, y: rhs(t, y), **options)
        assert batched.success and plain.success
        assert np.array_equal(batched.y, plain.y)
        assert batched.nfev == plain.nfev
        return batched

    @pytest.mark.parametrize("case, nfev", [
        ("fig2", 17_471), ("fig3", 17_060), ("fig4", 16_094),
        ("fig5", 16_502)])
    def test_figures_equal_the_plain_callable(self, case, nfev):
        _, fields = named_system_and_fields(case)
        assert self.assert_same_as_plain(fields).nfev == nfev

    def test_rejected_steps_equal_the_plain_callable(self):
        # no step cap and a tight tolerance: the controller rejects steps
        # (TestDop853Oracle.test_rejected_steps counts them), and a retried
        # step recomputes its envelopes for the new step size
        _, fields = named_system_and_fields("fig2")
        self.assert_same_as_plain(fields, rtol=1e-12, max_step=math.inf)

    @staticmethod
    def rejected_steps(fields, rtol, max_step):
        """Steps that scipy's own DOP853 loop retries on ``fields``."""
        from scipy.integrate import DOP853
        width = fields.width
        psi0 = np.zeros(fields.coupling_stack.shape[-1], dtype=complex)
        psi0[0] = 1.0
        solver = DOP853(stirapkit.propagation._LinearRhs(fields), -4.0 * width,
                        psi0, 5.0 * width, rtol=rtol, atol=rtol,
                        max_step=max_step * width)
        rejected = 0
        while solver.status == "running":
            before = solver.nfev
            solver.step()
            rejected += (solver.nfev - before) // 12 - 1
        return rejected

    @pytest.mark.parametrize("case", ["seed71", "seed72", "seed75-6x2",
                                      "seed73-4x4", "seed74-4x4"])
    @pytest.mark.parametrize("rtol, max_step", [(1e-10, 0.25),
                                                (1e-12, math.inf)])
    def test_complex_couplings_equal_the_plain_callable(self, case, rtol,
                                                        max_step):
        # fig2-fig5 have real couplings, so a conjugation slip on one path
        # cannot show there; these seeded designs are complex, with M < N
        # and M = N, and each setting makes the controller retry steps
        _, fields = named_system_and_fields(case)
        assert np.iscomplex(fields.peak_rabi_stokes).all()
        assert self.rejected_steps(fields, rtol, max_step) > 0
        self.assert_same_as_plain(fields, rtol=rtol, max_step=max_step)

    def test_propagate_takes_the_batched_path(self, monkeypatch):
        # the scalar envelopes are left to the edge check, the first f and
        # the starting step; the stages take theirs in one call per step
        scalar, batched = [], []

        def counting(log, function):
            def wrapper(*args):
                log.append(args)
                return function(*args)
            return wrapper

        prop = stirapkit.propagation
        monkeypatch.setattr(prop, "envelope_pair",
                            counting(scalar, prop.envelope_pair))
        monkeypatch.setattr(prop, "envelope_pairs",
                            counting(batched, prop.envelope_pairs))
        system, fields = named_system_and_fields("fig2")
        propagate(system, fields, ground_state(system))
        assert len(scalar) == 4
        # one call per trial step and one per sampled step's dense output
        assert 17_471 // 12 < len(batched) < 17_471 // 6
        assert sum(len(times) for times, _ in batched) < 17_471


class TestStackedSquaredSums:
    """The error norm's four squared sums come from one stacked ``np.matmul``.

    ``solve_ivp`` writes its two error estimates into the rows of one (2, n)
    complex buffer and takes re·re and im·im of each row as the items of a
    (2, 2, 1, n) by (2, 2, n, 1) product of its float view.  Each item is the
    ``ddot`` call that ``np.linalg.norm`` makes, so ``sqrt(re + im) ** 2``
    equals ``np.linalg.norm(row) ** 2`` bit for bit.
    """

    @staticmethod
    def stacked(err):
        """re·re and im·im of each row of the (2, n) complex ``err``."""
        parts = err.view(float).reshape(2, -1, 2).swapaxes(1, 2)
        return np.matmul(parts[:, :, None], parts[..., None]).reshape(2, 2)

    @staticmethod
    def bits(x):
        return np.float64(x).tobytes()

    # overflowing rows warn, as they do not inside solve_ivp
    @np.errstate(over="ignore", invalid="ignore")
    def assert_equal_to_norm(self, err):
        err = np.ascontiguousarray(err, dtype=complex)
        assert err.shape[0] == 2
        for row, (re, im) in zip(err, self.stacked(err).tolist()):
            real, imag = row.real, row.imag
            assert self.bits(re) == self.bits(real.dot(real))
            assert self.bits(im) == self.bits(imag.dot(imag))
            ours = math.sqrt(re + im) ** 2
            theirs = np.linalg.norm(row) ** 2
            if math.isnan(theirs):
                assert math.isnan(ours)
            else:
                assert self.bits(ours) == self.bits(theirs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 31, 64,
                                   257])
    def test_random_rows(self, n):
        rng = np.random.default_rng(n)
        for _ in range(100):
            scales = 10.0 ** rng.uniform(-30, 30, size=(2, 1))
            self.assert_equal_to_norm(scales * crandn(rng, 2, n))

    @pytest.mark.parametrize("row", [
        [0.0, 0.0, 0.0],
        [-0.0, 0.0j, -0.0j],
        [5e-324, 1e-310j, 2e-308 + 3e-320j],
        [1e-160, 1e-170j, 1.0],
        [1e200, 1.0, 1.0],
        [1e160j, 1e160, 1e-300],
        [math.inf, 1.0, 0.0],
        [1.0, complex(0.0, -math.inf), 1.0],
        [math.nan, 1.0, 1.0],
        [1.0, complex(1.0, math.nan), 1e300],
        [math.inf, math.nan, 0.0]],
        ids=["zero", "signed-zero", "subnormal", "underflow", "overflow",
             "overflow-sum", "inf", "inf-imag", "nan", "nan-imag", "inf-nan"])
    def test_special_rows(self, row):
        rng = np.random.default_rng(7)
        self.assert_equal_to_norm([row, crandn(rng, 3)])
        self.assert_equal_to_norm([crandn(rng, 3), row])
        self.assert_equal_to_norm([row, row])


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

    def test_other_methods_rejected(self):
        with pytest.raises(ValueError) as got:
            stirapkit.propagation.solve_ivp(
                lambda t, y: -1j * y, (0.0, 1.0), np.array([1.0 + 0j]),
                method="RK45", rtol=1e-8, atol=1e-8, t_eval=[0.5])
        assert str(got.value) == "only DOP853 is implemented, not 'RK45'"

    @pytest.mark.parametrize("t_span", [(1.0, 0.0), (0.5, 0.5)],
                             ids=["backward", "empty"])
    def test_forward_span_only(self, t_span):
        with pytest.raises(ValueError, match="integration runs forward only"):
            stirapkit.propagation.solve_ivp(
                lambda t, y: -1j * y, t_span, np.array([1.0 + 0j]),
                method="DOP853", rtol=1e-8, atol=1e-8, t_eval=[0.5])


class TestSolveIvpBuffers:
    """``solve_ivp`` reuses its buffers only within one call."""

    @staticmethod
    def solve(case, y0=None):
        system, fields = named_system_and_fields(case)
        if y0 is None:
            y0 = ground_state(system).components
        times = fields.width * np.linspace(-4.0, 5.0, 901)
        return stirapkit.propagation.solve_ivp(
            stirapkit.propagation._LinearRhs(fields), (times[0], times[-1]),
            y0, method="DOP853", rtol=1e-10, atol=1e-10,
            max_step=0.25 * fields.width, t_eval=times)

    def test_writeable_y0_left_unchanged(self):
        system, _ = named_system_and_fields("fig2")
        y0 = ground_state(system).components.copy()
        assert y0.flags.writeable and y0.dtype == complex
        kept = y0.copy()
        self.solve("fig2", y0)
        assert np.array_equal(y0, kept)

    def test_read_only_y0_accepted(self):
        system, _ = named_system_and_fields("fig2")
        y0 = ground_state(system).components
        assert not y0.flags.writeable
        sol = self.solve("fig2", y0)
        assert sol.success
        assert np.array_equal(sol.y, self.solve("fig2", y0.copy()).y)

    def test_results_of_two_calls_share_nothing(self):
        # a buffer kept between calls would let the second run overwrite
        # the first one's samples
        first = self.solve("fig2")
        kept = first.y.copy()
        second = self.solve("fig3")
        assert first.y.shape == second.y.shape
        assert np.array_equal(first.y, kept)
        assert not np.shares_memory(first.y, second.y)


@pytest.mark.parametrize("width", [1e100, 1e200, 1e300])
def test_huge_width_fails_without_warnings(width):
    # the trial steps overflow to inf and NaN; the step control rejects
    # them silently, until the step is below the spacing of the floats
    system = SystemSpec(1, 1, [1], [[1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PropagationError) as got:
            propagate(system, FieldSet([60], [[60]], width),
                      ground_state(system))
    assert str(got.value) == ("integration failed: Required step size is "
                              "less than spacing between numbers.")


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
