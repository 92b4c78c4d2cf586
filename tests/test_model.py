"""Core model: pulse envelopes, Rabi couplings, Hamiltonian assembly."""

import math

import numpy as np
import pytest

from stirapkit import (FieldSet, PulseSpec, StateVector, SystemSpec,
                       fieldset_from_pulses, ground_state, hamiltonian,
                       rabi_pump, rabi_stokes)

from helpers import crandn


def simple_fields(pump=60.0, stokes=90.0, width=1.0):
    return FieldSet([pump], [[stokes]], width)


class TestRabiPump:
    def test_peak_at_one_width(self):
        fields = simple_fields(pump=60.0)
        assert rabi_pump(fields, 1, 1.0) == pytest.approx(60.0)

    def test_vanishes_far_away(self):
        fields = simple_fields(pump=60.0)
        assert abs(rabi_pump(fields, 1, -50.0)) == 0.0

    def test_value_at_zero(self):
        # half way into the delay: one Gaussian width from the pump centre
        fields = simple_fields(pump=60.0)
        assert rabi_pump(fields, 1, 0.0) == pytest.approx(60.0 * math.exp(-1.0))

    def test_index_out_of_range(self):
        fields = simple_fields()
        with pytest.raises(IndexError):
            rabi_pump(fields, 0, 0.0)
        with pytest.raises(IndexError):
            rabi_pump(fields, 2, 0.0)


class TestRabiStokes:
    def test_peak_at_zero(self):
        fields = simple_fields(stokes=90.0)
        assert rabi_stokes(fields, 1, 1, 0.0) == pytest.approx(90.0)

    def test_vanishes_far_away(self):
        fields = simple_fields(stokes=90.0)
        assert abs(rabi_stokes(fields, 1, 1, 60.0)) == 0.0

    def test_value_at_one_width(self):
        fields = simple_fields(stokes=90.0)
        assert rabi_stokes(fields, 1, 1, 1.0) == pytest.approx(90.0 * math.exp(-1.0))

    def test_index_out_of_range(self):
        fields = simple_fields()
        with pytest.raises(IndexError):
            rabi_stokes(fields, 1, 2, 0.0)
        with pytest.raises(IndexError):
            rabi_stokes(fields, 2, 1, 0.0)


class TestEnvelopeOrdering:
    def test_pump_peaks_after_stokes(self):
        fields = FieldSet([10.0, 20.0], crandn(np.random.default_rng(0), 2, 3),
                          width=1.0)
        grid = np.linspace(-4, 5, 1801)
        for k in (1, 2):
            pump_mags = [abs(rabi_pump(fields, k, t)) for t in grid]
            assert grid[int(np.argmax(pump_mags))] == pytest.approx(1.0, abs=1e-9)
            stokes_mags = [abs(rabi_stokes(fields, k, 1, t)) for t in grid]
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
        rng = np.random.default_rng(11)
        n, m = 3, 3
        system = SystemSpec(n, m, crandn(rng, n), crandn(rng, n, m))
        width = 1.7
        pump_pulses = [PulseSpec(peak_field=rng.uniform(0.5, 2.0),
                                 phase=rng.uniform(0, 2 * np.pi),
                                 width=width, delay=width)
                       for _ in range(n)]
        stokes_pulses = [PulseSpec(peak_field=rng.uniform(0.5, 2.0),
                                   phase=rng.uniform(0, 2 * np.pi),
                                   width=width, delay=0.0)
                         for _ in range(n)]
        converted = fieldset_from_pulses(system, pump_pulses, stokes_pulses)

        pump = np.array([0.5 * system.mu_pump[k] * p.peak_field
                         * np.exp(1j * p.phase)
                         for k, p in enumerate(pump_pulses)])
        stokes = np.array([0.5 * system.mu_stokes[k] * p.peak_field
                           * np.exp(1j * p.phase)
                           for k, p in enumerate(stokes_pulses)])
        direct = FieldSet(pump, stokes, width)
        for t in (-1.0, 0.4, 2.2):
            assert np.array_equal(hamiltonian(system, converted, t),
                                  hamiltonian(system, direct, t))

    def test_wrong_delay_rejected(self):
        system = SystemSpec(1, 1, [1.0], [[1.0]])
        good_stokes = [PulseSpec(1.0, 0.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match="delayed"):
            fieldset_from_pulses(system, [PulseSpec(1.0, 0.0, 1.0, 0.5)],
                                 good_stokes)
        with pytest.raises(ValueError, match="centred"):
            fieldset_from_pulses(system, [PulseSpec(1.0, 0.0, 1.0, 1.0)],
                                 [PulseSpec(1.0, 0.0, 1.0, 0.3)])

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            PulseSpec(1.0, 0.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            PulseSpec(-1.0, 0.0, 1.0, 0.0)


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
