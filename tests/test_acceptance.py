"""Acceptance suite: every headline claim at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion.  The four reference reproductions assert the published
population bounds on the standard run output (window -4..5 widths, sampling
stride 0.01 widths); the property criteria draw seeded random instances.
"""

import time

import numpy as np
import pytest

from stirapkit import (FieldSet, PropagationConfig, SystemSpec, TargetSpec,
                       analytic_lambda1, analytic_pair_tracks,
                       builtin_scenario, cofactor_matrix,
                       converged_max_coupling, ground_state, hamiltonian,
                       make_null_vector, matched_pump_rabi,
                       numeric_null_space, phase_aligned_distance, propagate,
                       run, track_null_frame, verify_design)

from helpers import (crandn, intermediate_null_seeds, random_designed_fields,
                     random_feasible_system, random_target, width_ladder)


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE] {name}: {status}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fig_runs():
    """One standard run per built-in reference scenario, plus wall time."""
    out = {}
    for name in ("fig2", "fig3", "fig4", "fig5"):
        scenario = builtin_scenario(name)
        start = time.perf_counter()
        record, traj = run(scenario)
        elapsed = time.perf_counter() - start
        out[name] = (scenario, record, traj, elapsed)
    return out


def test_fig2_reproduction(fig_runs):
    _, record, _, elapsed = fig_runs["fig2"]
    ok = (record.max_p_x < 0.003 and record.max_p_y < 0.0005
          and record.final_p_f >= 0.99 and elapsed < 10.0
          and record.design_verified)
    verdict("fig2 reproduction", ok,
            f"max P_x={record.max_p_x:.3e} (<3e-3), "
            f"max P_y={record.max_p_y:.3e} (<5e-4), "
            f"final P_f={record.final_p_f:.6f} (>=0.99), "
            f"wall={elapsed:.2f}s (<10s)")


def test_fig3_reproduction(fig_runs):
    _, record, _, _ = fig_runs["fig3"]
    ok = (record.max_p_x < 0.002 and record.max_p_y < 0.0003
          and record.final_p_f >= 0.99)
    verdict("fig3 reproduction", ok,
            f"max P_x={record.max_p_x:.3e} (<2e-3), "
            f"max P_y={record.max_p_y:.3e} (<3e-4), "
            f"final P_f={record.final_p_f:.6f}")


def test_fig4_reproduction(fig_runs):
    scenario, record, _, _ = fig_runs["fig4"]
    pumps_zeroed = (scenario.fields.peak_rabi_pump[0] == 0
                    and scenario.fields.peak_rabi_pump[1] == 0)
    ok = (record.max_p_x < 0.0003 and record.max_p_y < 0.0001
          and record.final_p_f >= 0.99 and pumps_zeroed
          and record.pruned_pumps == (1, 2))
    verdict("fig4 reproduction", ok,
            f"max P_x={record.max_p_x:.3e} (<3e-4), "
            f"max P_y={record.max_p_y:.3e} (<1e-4), "
            f"final P_f={record.final_p_f:.6f}, pruned={record.pruned_pumps}")


def test_fig5_reproduction(fig_runs):
    _, record, _, _ = fig_runs["fig5"]
    ok = (record.max_p_x < 0.003 and record.max_p_y < 0.0005
          and record.final_p_f >= 0.99)
    verdict("fig5 reproduction (degeneracy count unknown to the design)", ok,
            f"max P_x={record.max_p_x:.3e} (<3e-3), "
            f"max P_y={record.max_p_y:.3e} (<5e-4), "
            f"final P_f={record.final_p_f:.6f}")


def test_null_space_oracle_equivalence():
    rng = np.random.default_rng(2001)
    worst_distance = 0.0
    worst_residual = 0.0
    trials = 0
    while trials < 100:
        n = int(rng.integers(2, 7))
        system = random_feasible_system(rng, n, n)
        target = random_target(rng, n)
        fields, _, _ = random_designed_fields(rng, system, target)
        t = float(rng.uniform(-1.5, 2.5))
        h = hamiltonian(system, fields, t)
        analytic = analytic_lambda1(system, fields, t, target)
        h_norm = np.linalg.norm(h, 2)
        residual = np.linalg.norm(h @ analytic.components) / h_norm
        vectors = numeric_null_space(h, tol=1e-9 * fields.max_rabi)
        assert len(vectors) == 1
        distance = phase_aligned_distance(vectors[0].components,
                                          analytic.components)
        worst_distance = max(worst_distance, distance)
        worst_residual = max(worst_residual, residual)
        trials += 1
    ok = worst_distance < 1e-10 and worst_residual < 1e-12
    verdict("null-space oracle equivalence (100 instances)", ok,
            f"worst phase-aligned distance={worst_distance:.2e} (<1e-10), "
            f"worst H*vec residual={worst_residual:.2e} (<1e-12 of |H|)")


def test_cofactor_identity():
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        s = crandn(rng, size, size)
        cof = cofactor_matrix(s)
        det = np.linalg.det(s)
        scale = float(np.prod(np.linalg.norm(s, axis=1)))
        expansion = cof.T @ s[:, -1]
        expected = np.zeros(size, complex)
        expected[-1] = det
        worst = max(worst, float(np.abs(expansion - expected).max()) / scale)
    ok = worst < 1e-10
    verdict("alien cofactor expansion (100 matrices up to 8x8)", ok,
            f"worst relative error={worst:.2e} (<1e-10)")


def test_partner_decoupling_below_full_degeneracy():
    rng = np.random.default_rng(2003)
    worst_chi = 0.0
    worst_p_x = 0.0
    cases = 0
    for _ in range(4):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, n))
        system = random_feasible_system(rng, n, m)
        fields, target, _ = random_designed_fields(rng, system)
        sampler = lambda t: hamiltonian(system, fields, t)
        grid = np.linspace(-4.0, 5.0, 301)
        lam1 = analytic_lambda1(system, fields, grid[0], target)
        partners = [make_null_vector(v, grid[0], system)
                    for v in intermediate_null_seeds(fields)]
        assert len(partners) == n - m

        for partner in partners:
            def tracks_for(g, partner=partner):
                frames = track_null_frame(sampler, [lam1, partner], g,
                                          system=system)
                return [f[0] for f in frames], [f[1] for f in frames]

            chi_max, _, converged = converged_max_coupling(
                tracks_for, grid[0], grid[-1], n_points=301,
                atol=1e-10 / fields.width)
            assert converged
            worst_chi = max(worst_chi, chi_max)

        traj = propagate(system, fields, ground_state(system), target=target)
        worst_p_x = max(worst_p_x, traj.max_p_x)
        cases += 1
    ok = worst_chi < 1e-8 and worst_p_x < 0.003
    verdict("partner decoupling for M < N", ok,
            f"{cases} systems: worst chi={worst_chi:.2e} (<1e-8/T), "
            f"worst max P_x={worst_p_x:.2e} (<3e-3)")


def test_excess_degeneracy_leakage_floor():
    # two intermediates feeding three degenerate states, phase-matching held:
    # the in-manifold coupling is finite and the leakage survives stretching
    # the pulses twice over
    rng = np.random.default_rng(2004)
    stokes = crandn(rng, 2, 3)
    stokes *= 40.0 / np.abs(stokes).mean()
    target = TargetSpec.basis(3)
    pump = matched_pump_rabi(stokes, target, 1.0)
    fields = FieldSet(pump, stokes, 1.0)
    system = SystemSpec(2, 3, np.ones(2), stokes)
    assert verify_design(system, fields, target).ok

    def tracks_for(grid):
        return analytic_pair_tracks(system, fields, grid, target)

    chi_max, _, converged = converged_max_coupling(tracks_for, -4.0, 5.0,
                                                   n_points=201)
    leaks = [r.max_p_y for r in width_ladder(system, fields, target)]
    floor = min(leaks) / 2.0
    ok = (converged and chi_max > 0 and floor > 1e-6
          and all(leak >= floor for leak in leaks))
    verdict("excess degeneracy (M > N) leakage floor", ok,
            f"chi_max={chi_max:.3f}/T (>0, stencil-converged), "
            f"max P_y over width ladder x(1,2,4)="
            f"{', '.join(f'{l:.3e}' for l in leaks)}, floor={floor:.3e}")


def test_large_manifold_transfer():
    # N = M = 64 random complex dipoles: the method is stated for any N, and
    # transfer quality does not degrade with size
    rng = np.random.default_rng(11)
    system = random_feasible_system(rng, 64, 64)
    fields, target, _ = random_designed_fields(rng, system)
    config = PropagationConfig()
    traj = propagate(system, fields, ground_state(system), config, target)
    norm_tol = max(1e-9, 10.0 * max(config.rel_tol, config.abs_tol))
    worst_distance = 0.0
    for t in (-1.0, 0.5, 2.0):
        vectors = numeric_null_space(hamiltonian(system, fields, t),
                                     tol=1e-9 * fields.max_rabi)
        assert len(vectors) == 1
        analytic = analytic_lambda1(system, fields, t, target)
        worst_distance = max(worst_distance, phase_aligned_distance(
            vectors[0].components, analytic.components))
    ok = (1.0 - traj.final_p_f < 1e-3 and traj.max_p_x < 5e-3
          and traj.max_norm_error <= norm_tol and worst_distance < 1e-10)
    verdict("large manifold transfer (N = M = 64)", ok,
            f"1 - P_f={1.0 - traj.final_p_f:.2e} (<1e-3), "
            f"max P_x={traj.max_p_x:.2e} (<5e-3), "
            f"max norm error={traj.max_norm_error:.2e} (<={norm_tol:.0e}), "
            f"worst analytic/SVD distance={worst_distance:.2e} (<1e-10)")

def test_phase_sensitivity(fig_runs):
    scenario, baseline, _, _ = fig_runs["fig2"]
    pump = scenario.fields.peak_rabi_pump.copy()
    pump[2] *= np.exp(1j * np.pi)  # flip pump 3
    flipped = FieldSet(pump, scenario.fields.peak_rabi_stokes, 1.0)
    traj = propagate(scenario.system, flipped, ground_state(scenario.system),
                     scenario.propagation)
    ratio = traj.max_p_y / baseline.max_p_y
    ok = ratio >= 10.0
    verdict("phase sensitivity (pi flip on one pump)", ok,
            f"max P_y {baseline.max_p_y:.3e} -> {traj.max_p_y:.3e}, "
            f"ratio={ratio:.0f}x (>=10x)")


def test_superposition_targets():
    # random target directions inside the degenerate manifold of the
    # reference system; Stokes field amplitudes are free design inputs and
    # are set six times stronger than the reference table so the transfer
    # stays adiabatic for poorly coupled directions (the reference Stokes
    # block has a 2.4-to-459 singular-value spread), with the pump/Stokes
    # ratio left at one
    scenario = builtin_scenario("fig2")
    system = scenario.system
    rng = np.random.default_rng(2005)
    worst_fidelity = 1.0
    worst_p_y = 0.0
    from stirapkit import design_fields
    for _ in range(8):
        target = random_target(rng, 7)
        fields = design_fields(system, target, 1.0, 1.0, np.full(7, 12.0))
        assert verify_design(system, fields, target).ok
        traj = propagate(system, fields, ground_state(system),
                         scenario.propagation, target)
        worst_fidelity = min(worst_fidelity, traj.final_p_f)
        worst_p_y = max(worst_p_y, traj.max_p_y)
    ok = worst_fidelity >= 0.99 and worst_p_y < 0.001
    verdict("superposition targets (8 random directions)", ok,
            f"worst fidelity={worst_fidelity:.5f} (>=0.99), "
            f"worst max P_y={worst_p_y:.2e} (<1e-3)")


def test_numerical_hygiene(fig_runs):
    import dataclasses
    scenario, record, traj, _ = fig_runs["fig2"]
    tight = dataclasses.replace(scenario.propagation,
                                rel_tol=5e-11, abs_tol=5e-11)
    tighter = propagate(scenario.system, scenario.fields,
                        ground_state(scenario.system), tight)
    drift = float(np.abs(traj.populations[-1]
                         - tighter.populations[-1]).max())
    ok = record.max_norm_error < 1e-9 and drift < 1e-8
    verdict("numerical hygiene", ok,
            f"max norm error={record.max_norm_error:.2e} (<1e-9), "
            f"final-population drift under tolerance halving={drift:.2e} "
            f"(<1e-8)")
