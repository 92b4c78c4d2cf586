"""Tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from run import accuracy_digits, tail  # noqa: E402
from spans import Tracer, self_times, totals  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic(tmp_path):
    first = workloads.generate_cases(11, tmp_path / "a")
    second = workloads.generate_cases(11, tmp_path / "b")
    other = workloads.generate_cases(12, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [c["times"] for c in first] == [c["times"] for c in second]
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len(first) == len(workloads.DESIGN_SIZES)
    assert sum(not c["feasible"] for c in first) == 6
    assert sorted((c["n"], c["m"]) for c in other) == sorted(
        workloads.DESIGN_SIZES)


# -- reference checker -------------------------------------------------------


def _write_fig2_output(out_dir: Path, populations, reported_ok=True):
    """A one-row time series and summary record shaped like ``run``'s."""
    ref = workloads.load_refs()["reproduce"]["fig2"]
    dim = len(ref["final_state"])
    pops = np.asarray(populations, dtype=float)
    n = m = (dim - 1) // 2
    p_x = pops[1:1 + n].sum()
    p_f = pops[-1]
    p_y = pops[1 + n:].sum() - p_f
    row = [5.0, *pops, p_x, p_y, p_f, 0.0]
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join(["t_over_T"] + [f"c{i}" for i in range(dim)]
                      + ["P_x", "P_y", "P_f", "norm_err"])
    (out_dir / "fig2.csv").write_text(
        header + "\n" + ",".join(format(v, ".17g") for v in row) + "\n")
    (out_dir / "fig2.json").write_text(json.dumps({"bounds_ok": reported_ok}))
    return ref


def _reference_populations():
    ref = workloads.load_refs()["reproduce"]["fig2"]
    return np.array([re * re + im * im for re, im in ref["final_state"]])


@pytest.fixture()
def reproduce():
    return workloads.Reproduce(workloads.load_refs())


def test_checker_accepts_the_reference(tmp_path, reproduce):
    _write_fig2_output(tmp_path, _reference_populations())
    failures, errors = reproduce.check("fig2", 0, tmp_path)
    assert failures == []
    assert errors["max_state_err"][0] < 1e-12


def test_checker_fails_a_perturbed_state(tmp_path, reproduce):
    pops = _reference_populations()
    pops[0] += 1e-4
    pops[-1] -= 1e-4
    _write_fig2_output(tmp_path, pops)
    failures, errors = reproduce.check("fig2", 0, tmp_path)
    assert any("final state off" in f for f in failures)
    assert errors["max_state_err"][0] > workloads.STATE_TOL


def test_checker_fails_a_nan_state(tmp_path, reproduce):
    pops = _reference_populations()
    pops[3] = math.nan
    _write_fig2_output(tmp_path, pops)
    failures, errors = reproduce.check("fig2", 0, tmp_path)
    assert any("non-finite" in f for f in failures)
    assert not errors["max_state_err"][0] <= workloads.STATE_TOL


def test_checker_fails_a_flipped_verdict(tmp_path, reproduce):
    _write_fig2_output(tmp_path, _reference_populations(), reported_ok=False)
    failures, _ = reproduce.check("fig2", 2, tmp_path)
    assert any("reported bound verdict" in f for f in failures)
    assert any("exit code 2" in f for f in failures)


def test_checker_fails_missing_output(tmp_path, reproduce):
    failures, errors = reproduce.check("fig2", 0, tmp_path)
    assert failures and math.isinf(errors["max_state_err"][0])


# -- span arithmetic ---------------------------------------------------------


def _span(sid, parent, name, t0, t1, op="op-1"):
    return (sid, parent, op, name, t0, t1)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, "op", 0, 100),
        _span(1, 0, "a", 10, 40),
        _span(2, 0, "b", 30, 60),   # overlaps a: counted once
        _span(3, 0, "c", 50, 120),  # runs past the parent: clipped
        _span(4, 1, "a.child", 15, 25),
    ]
    own = self_times(spans)
    assert own == {0: 100 - 90, 1: 30 - 10, 2: 30, 3: 70, 4: 10}


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        _span(0, None, "op", 0, 1000),
        _span(1, 0, "cli.main", 5, 990),
        _span(2, 1, "scenarios.run", 20, 900),
        _span(3, 2, "propagation.propagate", 30, 800),
        _span(4, 3, "propagation.solver", 40, 700),
        _span(5, 4, "propagation.rhs", 50, 60),
        _span(6, 4, "propagation.rhs", 70, 95),
        _span(7, 2, "scenarios.write", 810, 890),
    ]
    calls, self_ns = totals(spans)
    assert sum(self_ns.values()) == 1000
    assert calls[("op-1", "propagation.rhs")] == 2
    assert self_ns[("op-1", "propagation.rhs")] == 35
    assert self_ns[("op-1", "propagation.solver")] == 660 - 35


def test_tracer_reports_missing_functions_as_absent():
    module = types.SimpleNamespace(__name__="fake", present=lambda: 1)
    tracer = Tracer()
    tracer.patch(module, "present", lambda fn: tracer.timed(fn, "x.present"),
                 ["x.present"])
    tracer.patch(module, "gone", lambda fn: fn, ["x.gone"])
    with tracer.op("one"):
        assert module.present() == 1
    tracer.uninstall()
    assert tracer.absent == {"x.gone": "fake has no attribute 'gone'"}
    assert [s[3] for s in tracer.spans] == ["x.present", "op"]
    assert module.present() == 1 and not hasattr(module.present, "__wrapped__")


# -- summary statistics ------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_it():
    samples = list(range(1, 41))
    value, label = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert label == "p75 of 40"
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")


def test_accuracy_digits():
    assert accuracy_digits({"e": (1e-9, 1e-6)}) == pytest.approx(3.0)
    assert accuracy_digits({"a": (1e-9, 1e-6), "b": (1e-14, 1e-12)}) == (
        pytest.approx(2.0))
    assert accuracy_digits({"e": (math.inf, 1e-6)}) < 0


def test_relative_timings_ignore_host_speed():
    from run import Pass, end_to_end
    runner = types.SimpleNamespace(max_errors={"err": (1e-9, 1e-6)},
                                   failures=[], attempted=24)
    steady = [Pass(2.0, 2.0, [0.5, 0.7, 0.3, 0.5], [0.01] * 4)] * 6
    # the same work on a host that runs half of the passes 1.8x slower
    slow = [Pass(3.6, 3.6, [0.9, 1.26, 0.54, 0.9], [0.018] * 4)] * 3
    uneven, _ = end_to_end(runner, steady[:3] + slow, [1.0], 12.0)
    even, detail = end_to_end(runner, steady, [1.0], 12.0)
    for name in ("wall_rel", "op_p50_rel", "op_tail_rel"):
        assert uneven[name]["value"] == pytest.approx(even[name]["value"])
    assert even["wall_rel"]["value"] == pytest.approx(200.0)
    assert even["op_p50_rel"]["value"] == pytest.approx(50.0)
    assert detail["raw"]["wall_s"] == pytest.approx(2.0)
