"""Core model: pulse envelopes, Rabi couplings, Hamiltonian assembly."""

import math

import numpy as np
import pytest

from stirapkit import (FieldSet, NullVector, NullVectorLabel, StateVector,
                       SystemSpec, TargetSpec, design_fields, envelope_pair,
                       ground_state, hamiltonian, log_envelope_ratio,
                       matched_pump_rabi)

from helpers import crandn, random_feasible_system

THREE_LEVEL = SystemSpec(1, 1, [1.0], [[1.0]])


def simple_fields(pump=60.0, stokes=90.0, width=1.0):
    return FieldSet([pump], [[stokes]], width)


def rabi_pump(fields, t):
    """The pump coupling of a three-level system, read from its Hamiltonian."""
    return hamiltonian(THREE_LEVEL, fields, t)[0, 1]


def rabi_stokes(fields, t):
    """The Stokes coupling of a three-level system, read from its Hamiltonian."""
    return hamiltonian(THREE_LEVEL, fields, t)[1, 2]


class TestRabiPump:
    def test_peak_at_one_width(self):
        fields = simple_fields(pump=60.0)
        assert rabi_pump(fields, 1.0) == pytest.approx(60.0)

    def test_vanishes_far_away(self):
        fields = simple_fields(pump=60.0)
        assert abs(rabi_pump(fields, -50.0)) == 0.0

    def test_value_at_zero(self):
        # half way into the delay: one Gaussian width from the pump centre
        fields = simple_fields(pump=60.0)
        assert rabi_pump(fields, 0.0) == pytest.approx(60.0 * math.exp(-1.0))


class TestRabiStokes:
    def test_peak_at_zero(self):
        fields = simple_fields(stokes=90.0)
        assert rabi_stokes(fields, 0.0) == pytest.approx(90.0)

    def test_vanishes_far_away(self):
        fields = simple_fields(stokes=90.0)
        assert abs(rabi_stokes(fields, 60.0)) == 0.0

    def test_value_at_one_width(self):
        fields = simple_fields(stokes=90.0)
        assert rabi_stokes(fields, 1.0) == pytest.approx(90.0 * math.exp(-1.0))


class TestEnvelopeOrdering:
    def test_pump_peaks_after_stokes(self):
        fields = FieldSet([10.0, 20.0], crandn(np.random.default_rng(0), 2, 3),
                          width=1.0)
        system = SystemSpec(2, 3, np.ones(2), np.ones((2, 3)))
        grid = np.linspace(-4, 5, 1801)
        h = np.array([hamiltonian(system, fields, t) for t in grid])
        for k in (1, 2):
            pump_mags = np.abs(h[:, 0, k])
            assert grid[int(np.argmax(pump_mags))] == pytest.approx(1.0, abs=1e-9)
            # intermediate k to the first degenerate state
            stokes_mags = np.abs(h[:, k, 3])
            assert grid[int(np.argmax(stokes_mags))] == pytest.approx(0.0, abs=1e-9)


class TestHamiltonian:
    def test_zero_fields_zero_matrix(self):
        system = SystemSpec(2, 2, [0, 0], [[0, 0], [0, 0]])
        fields = FieldSet([0, 0], [[0, 0], [0, 0]], 1.0)
        for t in (-3.0, 0.0, 2.5):
            assert np.all(hamiltonian(system, fields, t) == 0)

    def test_three_level_values(self):
        system = SystemSpec(1, 1, [1.0], [[1.0]])
        fields = FieldSet([1.0], [[1.0]], 1.0)
        h = hamiltonian(system, fields, 0.0)
        assert h.shape == (3, 3)
        assert h[0, 1] == pytest.approx(math.exp(-1.0))
        assert h[1, 2] == pytest.approx(1.0)
        assert np.allclose(h, h.conj().T)
        assert h[0, 2] == 0 and h[0, 0] == 0 and h[1, 1] == 0 and h[2, 2] == 0

    def test_reference_entry_15x15(self):
        # 7+7 reference table: first Stokes row (90, 15, 0, 150, 36, 18, 60)
        from stirapkit import builtin_scenario
        scenario = builtin_scenario("fig2")
        h = hamiltonian(scenario.system, scenario.fields, 0.0)
        assert h.shape == (15, 15)
        assert h[1, 8] == pytest.approx(90.0)
        assert np.allclose(h, h.conj().T)

    def test_hermitian_and_sparsity_random(self):
        rng = np.random.default_rng(7)
        n, m = 3, 2
        system = SystemSpec(n, m, crandn(rng, n), crandn(rng, n, m))
        fields = FieldSet(crandn(rng, n) * 40, crandn(rng, n, m) * 40, 1.3)
        for t in rng.uniform(-4, 5, 6):
            h = hamiltonian(system, fields, t)
            assert np.array_equal(h, h.conj().T)
            # exact zeros outside the two coupling blocks
            assert np.all(h.diagonal() == 0)
            assert np.all(h[0, 1 + n:] == 0)
            assert np.all(h[1 + n:, 0] == 0)
            assert np.all(h[1:1 + n, 1:1 + n] == 0)
            assert np.all(h[1 + n:, 1 + n:] == 0)

    def test_shape_mismatch_rejected(self):
        system = SystemSpec(2, 2, [1, 1], [[1, 1], [1, 1]])
        fields = FieldSet([1.0], [[1.0]], 1.0)
        with pytest.raises(ValueError):
            hamiltonian(system, fields, 0.0)


class TestPulseConversion:
    def test_pulse_spec_and_direct_fields_agree(self):
        # the designer converts Stokes field amplitudes and phases through
        # 2*rabi = mu * field * exp(i*phase)
        rng = np.random.default_rng(11)
        n, m = 3, 3
        system = random_feasible_system(rng, n, m)
        target = TargetSpec.basis(m)
        width = 1.7
        amplitudes = rng.uniform(0.5, 2.0, n)
        phases = rng.uniform(0, 2 * np.pi, n)
        converted = design_fields(system, target, 1.0, width, amplitudes,
                                  phases)

        per_pulse = 0.5 * amplitudes * np.exp(1j * phases)
        stokes = per_pulse[:, None] * system.mu_stokes
        direct = FieldSet(matched_pump_rabi(stokes, target, 1.0), stokes, width)
        for t in (-1.0, 0.4, 2.2):
            assert np.array_equal(hamiltonian(system, converted, t),
                                  hamiltonian(system, direct, t))


class TestTypes:
    def test_system_shape_validation(self):
        with pytest.raises(ValueError):
            SystemSpec(2, 2, [1.0], [[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            SystemSpec(2, 2, [1, 1], [[1, 1]])
        with pytest.raises(ValueError):
            SystemSpec(0, 1, [], [[]])

    def test_values_are_frozen(self):
        fields = simple_fields()
        with pytest.raises(ValueError):
            fields.peak_rabi_pump[0] = 5.0
        system = SystemSpec(1, 1, [1.0], [[1.0]])
        with pytest.raises(ValueError):
            system.mu_stokes[0, 0] = 2.0

    def test_ground_state(self):
        system = SystemSpec(2, 3, [1, 1], [[1, 1, 1], [1, 1, 1]])
        state = ground_state(system, time=-4.0)
        assert state.norm == pytest.approx(1.0)
        assert state.components[0] == 1.0
        assert np.all(state.components[1:] == 0)
        assert state.time == -4.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="mu_pump must be finite"):
            SystemSpec(1, 1, [bad], [[1.0]])
        with pytest.raises(ValueError, match="mu_stokes must be finite"):
            SystemSpec(1, 1, [1.0], [[complex(1.0, bad)]])
        with pytest.raises(ValueError, match="peak_rabi_pump must be finite"):
            FieldSet([bad], [[1.0]], 1.0)
        with pytest.raises(ValueError, match="peak_rabi_stokes must be finite"):
            FieldSet([1.0], [[bad]], 1.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(ValueError, match="width"):
            FieldSet([1.0], [[1.0]], width)

    def test_state_vector_validation(self):
        with pytest.raises(ValueError):
            StateVector(np.array([[1.0], [0.0]]))  # must be 1-d
        with pytest.raises(ValueError):
            StateVector(np.array([]))

    def test_fieldset_helpers(self):
        fields = FieldSet([2.0], [[4.0]], 1.0)
        assert fields.max_rabi == 4.0
        scaled = fields.scaled(3.0)
        assert scaled.peak_rabi_pump[0] == 6.0
        widened = fields.with_width(2.0)
        assert widened.width == 2.0
        assert widened.peak_rabi_stokes[0, 0] == 4.0


class TestStateVectorCopies:
    """A state always stores its own read-only copy of its input."""

    def test_writeable_array_is_copied(self):
        values = np.array([1.0, 2.0j, 0.5])
        state = StateVector(values)
        values[0] = 9.0
        assert state.components[0] == 1.0
        assert not state.components.flags.writeable
        assert not np.shares_memory(state.components, values)

    def test_read_only_view_of_writeable_array_is_copied(self):
        base = np.zeros(4, dtype=complex)
        view = base[:]
        view.setflags(write=False)
        state = StateVector(view)
        base[0] = 5.0
        assert np.all(state.components == 0)
        assert not np.shares_memory(state.components, base)

    def test_row_of_read_only_stack_is_kept(self):
        stack = np.arange(12, dtype=complex).reshape(2, 2, 3).copy()
        stack.setflags(write=False)
        row = stack[1][0]
        state = StateVector(row)
        assert np.array_equal(state.components, [6, 7, 8])
        assert not np.shares_memory(state.components, stack)
        stack.setflags(write=True)
        stack[1, 0, 0] = 99
        assert np.array_equal(state.components, [6, 7, 8])

    def test_read_only_real_array_is_copied_as_complex(self):
        values = np.array([1.0, 0.0])
        values.setflags(write=False)
        state = StateVector(values)
        assert state.components.dtype == complex
        assert not state.components.flags.writeable

    def test_read_only_input_still_checked(self):
        stack = np.ones((2, 3), dtype=complex)
        stack.setflags(write=False)
        with pytest.raises(ValueError, match="1-d"):
            StateVector(stack)
        with pytest.raises(ValueError, match="1-d"):
            StateVector(stack[0, :0])

    def test_owner_made_writeable_again_does_not_reach_state(self):
        # the read-only flag of an array that owns its memory can be undone
        stack = np.zeros((2, 3), dtype=complex)
        stack[0, 0] = 1.0
        stack.setflags(write=False)
        state = StateVector(stack[0])
        null = NullVector(stack[0], 0.0, label=NullVectorLabel.GENERIC)
        stack.setflags(write=True)
        stack[0, 0] = 99
        for vec in (state, null):
            assert np.array_equal(vec.components, [1, 0, 0])
            assert not vec.components.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     complex(0.0, math.nan)])
    def test_non_finite_rejected(self, bad):
        for values in (np.array([1.0, bad, 0.0]), [bad]):
            with pytest.raises(ValueError, match="state vector must be finite"):
                StateVector(values)
        with pytest.raises(ValueError, match="finite"):
            NullVector([0.0, bad], 0.0, label=NullVectorLabel.GENERIC)


class TestCouplingBlockCache:
    """``hamiltonian`` reuses one set of blocks per field set."""

    @staticmethod
    def weighted_blocks(fields, t):
        f_p, f_s = envelope_pair(t, fields.width)
        h_pump, h_stokes = fields.coupling_stack
        return f_p * h_pump + f_s * h_stokes

    def test_hamiltonian_equals_weighted_blocks(self):
        rng = np.random.default_rng(31)
        system = random_feasible_system(rng, 3, 2)
        fields = FieldSet(crandn(rng, 3), crandn(rng, 3, 2) * 40, 1.3)
        for t in (-4.0, -0.7, 0.0, 0.65, 1.3, 2.9, 6.0):
            assert np.array_equal(hamiltonian(system, fields, t),
                                  self.weighted_blocks(fields, t))

    def test_returned_matrix_does_not_alias_the_blocks(self):
        fields = simple_fields()
        h = hamiltonian(THREE_LEVEL, fields, 0.5)
        h[:] = 0.0
        assert np.array_equal(hamiltonian(THREE_LEVEL, fields, 0.5),
                              self.weighted_blocks(fields, 0.5))

    def test_derived_field_sets_build_their_own_blocks(self):
        fields = simple_fields(pump=60.0, stokes=90.0, width=1.0)
        before = hamiltonian(THREE_LEVEL, fields, 0.4)
        scaled = fields.scaled(2.0)
        widened = fields.with_width(3.0)
        for derived in (scaled, widened):
            for t in (-1.0, 0.4, 2.0):
                assert np.array_equal(hamiltonian(THREE_LEVEL, derived, t),
                                      self.weighted_blocks(derived, t))
        assert rabi_pump(scaled, 1.0) == pytest.approx(120.0)
        assert not np.array_equal(hamiltonian(THREE_LEVEL, scaled, 0.4),
                                  before)
        assert np.array_equal(hamiltonian(THREE_LEVEL, fields, 0.4), before)


class TestEnvelopePair:
    """``envelope_pair`` and ``log_envelope_ratio``: the one home of the pulses."""

    WIDTHS = (0.37, 1.0, 2.5)

    def test_envelope_pair_matches_literal_gaussians_bitwise(self):
        # Scalar (Python float) times.  The square must stay ``** 2``: on a
        # Python float that is libm's pow, which differs from a multiply (what
        # numpy does for an array square) in the last bit on 163 of 200,000
        # random arguments, and the trajectory CSV bytes depend on every bit.
        rng = np.random.default_rng(16)
        for w in self.WIDTHS:
            for t in (w * rng.uniform(-6.0, 7.0, 10_000)).tolist():
                f_p, f_s = envelope_pair(t, w)
                assert f_p == np.exp(-((t - w) / w) ** 2)
                assert f_s == np.exp(-(t / w) ** 2)

    def test_log_envelope_ratio_is_log_of_the_pair_ratio(self):
        rng = np.random.default_rng(17)
        tiny = np.finfo(float).tiny
        checked = 0
        for w in self.WIDTHS:
            for t in (w * rng.uniform(-30.0, 30.0, 5_000)).tolist():
                f_p, f_s = envelope_pair(t, w)
                if f_p < tiny or f_s < tiny:
                    continue
                ratio = log_envelope_ratio(t, w)
                assert abs(ratio - math.log(f_p / f_s)) <= 1e-12 * (1 + abs(ratio))
                checked += 1
        assert checked > 10_000

    def test_log_envelope_ratio_finite_where_both_envelopes_underflow(self):
        assert envelope_pair(1e3, 1.0) == (0.0, 0.0)
        assert log_envelope_ratio(1e3, 1.0) == 1999.0


class TestCouplingStack:
    """``FieldSet.coupling_stack``: one read-only (2, d, d) stack per field set."""

    def test_coupling_stack_is_read_only_and_cached(self):
        fields = simple_fields()
        stack = fields.coupling_stack
        assert stack.shape == (2, 3, 3)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0, 1] = 1.0
        assert fields.coupling_stack is stack
        hamiltonian(THREE_LEVEL, fields, 0.3)
        assert fields.coupling_stack is stack

    def test_coupling_stack_layout(self):
        rng = np.random.default_rng(18)
        pump, stokes = crandn(rng, 3), crandn(rng, 3, 2)
        stack = FieldSet(pump, stokes, 1.0).coupling_stack
        assert np.array_equal(stack[0, 0, 1:4], pump)
        assert np.array_equal(stack[0, 1:4, 0], pump.conj())
        assert np.array_equal(stack[1, 1:4, 4:], stokes)
        assert np.array_equal(stack[1, 4:, 1:4], stokes.conj().T)
        mask = np.zeros((2, 6, 6), dtype=bool)
        mask[0, 0, 1:4] = mask[0, 1:4, 0] = True
        mask[1, 1:4, 4:] = mask[1, 4:, 1:4] = True
        assert not stack[~mask].any()

    def test_hamiltonian_is_pair_weighted_stack(self):
        rng = np.random.default_rng(19)
        system = random_feasible_system(rng, 4, 2)
        fields = FieldSet(crandn(rng, 4), crandn(rng, 4, 2) * 30, 0.8)
        stack = fields.coupling_stack
        for t in (fields.width * rng.uniform(-5.0, 6.0, 200)).tolist():
            f_p, f_s = envelope_pair(t, fields.width)
            assert np.array_equal(hamiltonian(system, fields, t),
                                  f_p * stack[0] + f_s * stack[1])
