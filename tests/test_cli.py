"""Command-line interface: subcommands, flags, exit codes, output files."""

import json
import math
import warnings

import pytest
from click.testing import CliRunner

import stirapkit.propagation
import stirapkit.scenarios
from stirapkit.cli import main

from helpers import nan_solve_ivp, unreachable_solve_ivp


@pytest.fixture
def runner():
    return CliRunner()


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def mini_dict(**kwargs):
    base = {
        "label": "mini",
        "system": {"n_intermediate": 1, "n_degenerate": 1,
                   "mu_pump": [1.0], "mu_stokes": [[1.0]]},
        "target": [1.0],
        "fields": {"peak_rabi_pump": [60.0],
                   "peak_rabi_stokes": [[60.0]], "width": 1.0},
        "propagation": {"stride": 0.05},
    }
    base.update(kwargs)
    return base


def infeasible_design_dict():
    return {
        "label": "toowide",
        "system": {"n_intermediate": 2, "n_degenerate": 3,
                   "mu_pump": [1.0, 1.0],
                   "mu_stokes": [[1.0, 0.2, 0.3], [0.4, 1.0, 0.6]]},
        "target": [0.0, 0.0, 1.0],
        "design": {"stokes_amplitudes": [2.0, 2.0]},
    }


def bad_design_dict(**design):
    """A feasible two-channel design request with some entries replaced."""
    return {
        "label": "designed",
        "system": {"n_intermediate": 2, "n_degenerate": 2,
                   "mu_pump": [1.0, 1.0],
                   "mu_stokes": [[1.0, 0.3], [0.4, 1.0]]},
        "target": [0.0, 1.0],
        "design": {"stokes_amplitudes": [120.0, 120.0], **design},
        "propagation": {"stride": 0.05},
    }


# Design requests that each used to end every command in a ValueError
# traceback: non-finite values load, and an eta of 1e308 overflows the pumps.
BAD_DESIGNS = {
    "amplitude-nan": {"stokes_amplitudes": [math.nan, 120.0]},
    "phase-nan": {"stokes_phases": [math.nan, 0.0]},
    "eta-nan": {"eta": math.nan},
    "eta-inf": {"eta": math.inf},
    "eta-overflow": {"eta": 1e308},
    "width-nan": {"width": math.nan},
    "width-inf": {"width": math.inf},
}


@pytest.mark.parametrize("case", sorted(BAD_DESIGNS))
class TestBadDesignRequest:
    @pytest.mark.parametrize("command", ["design", "verify", "run"])
    def test_one_error_line(self, runner, tmp_path, monkeypatch, case,
                            command):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", None)
        ref = write_scenario(tmp_path, bad_design_dict(**BAD_DESIGNS[case]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [command, ref])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert "must be finite" in result.output
        assert len(result.output.splitlines()) == 1

    def test_sweep_exits_1(self, runner, tmp_path, monkeypatch, case):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", None)
        ref = write_scenario(tmp_path, bad_design_dict(**BAD_DESIGNS[case]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["sweep", ref, "--axis",
                                          "amplitude-scale", "--values", "1",
                                          "--jobs", "1"])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "must be finite" in result.output
        assert "Warning" not in result.output


@pytest.mark.parametrize("raw", [
    mini_dict(fields={"peak_rabi_pump": [60.0], "peak_rabi_stokes": [[60.0]],
                      "width": 10 ** 400}),
    bad_design_dict(width=10 ** 400)], ids=["fields", "design"])
def test_integer_width_too_large_for_a_float(runner, tmp_path, monkeypatch,
                                             raw):
    # a 400-digit JSON integer is bad input, not an OverflowError traceback
    monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                        unreachable_solve_ivp)
    result = runner.invoke(main, ["run", write_scenario(tmp_path, raw)])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert "finite" in result.output
    assert len(result.output.splitlines()) == 1


class TestOverflowingWidth:
    """A finite width whose window overflows fails before the integrator."""

    @pytest.mark.parametrize("raw", [
        bad_design_dict(width=1e308),
        mini_dict(fields={"peak_rabi_pump": [60.0],
                          "peak_rabi_stokes": [[60.0]], "width": 1e308})],
        ids=["design", "fields"])
    def test_run_one_error_line(self, runner, tmp_path, monkeypatch, raw):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        ref = write_scenario(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["run", ref])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert "sample times overflow" in result.output
        assert len(result.output.splitlines()) == 1

    def test_sweep_entry_exits_1(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        ref = write_scenario(tmp_path, mini_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["sweep", ref, "--axis", "width",
                                          "--values", "1e308", "--jobs", "1"])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert "ScenarioError" in result.output
        assert "sample times overflow" in result.output
        assert "Warning" not in result.output


def test_huge_width_numerical_failure_prints_no_warning(runner, tmp_path):
    # a finite sample grid, but trial steps that overflow: exit 4 with the
    # integrator's message and nothing from numpy
    raw = mini_dict(fields={"peak_rabi_pump": [60.0],
                            "peak_rabi_stokes": [[60.0]], "width": 1e300})
    ref = write_scenario(tmp_path, raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["run", ref])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 4, result.output
    assert "Required step size" in result.output
    assert "RuntimeWarning" not in result.output
    assert not caught, [str(warning.message) for warning in caught]


class TestRun:
    def test_mini_run_ok(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["run", ref, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "final P_f" in result.output
        assert (tmp_path / "mini.csv").exists()
        assert (tmp_path / "mini.json").exists()

    def test_bound_violation_exit_code(self, runner, tmp_path):
        raw = mini_dict(bounds={"max_p_x": 1e-12})
        ref = write_scenario(tmp_path, raw)
        result = runner.invoke(main, ["run", ref])
        assert result.exit_code == 2
        assert "BOUND VIOLATED" in result.output

    def test_nan_bound_exits_1(self, runner, tmp_path, monkeypatch):
        # rejected on load: no run starts and nothing reports a violation
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", None)
        raw = mini_dict(bounds={"max_p_x": float("nan")})
        ref = write_scenario(tmp_path, raw)
        result = runner.invoke(main, ["run", ref])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert "max_p_x must be finite" in result.output
        assert len(result.output.splitlines()) == 1

    def test_infeasible_design_exit_code(self, runner, tmp_path):
        ref = write_scenario(tmp_path, infeasible_design_dict())
        result = runner.invoke(main, ["run", ref])
        assert result.exit_code == 3

    def test_nan_trajectory_exit_code(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp", nan_solve_ivp)
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["run", ref])
        assert result.exit_code == 4, result.output
        assert "numerical failure" in result.output

    def test_unknown_scenario_exit_code(self, runner):
        result = runner.invoke(main, ["run", "does-not-exist.json"])
        assert result.exit_code == 1
        assert "error" in result.output

    def test_undecodable_file_exits_1(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe not UTF-8")
        result = runner.invoke(main, ["run", str(path)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {path}: ")
        assert len(result.output.splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_deeply_nested_file_exits_1(self, runner, tmp_path, command):
        # the JSON decoder's RecursionError used to end in a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        result = runner.invoke(main, [command, str(path)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output == (
            f"error: {path}: not valid JSON: nested too deeply\n")

    @pytest.mark.parametrize("flag", [["--window", "5", "-4"],
                                      ["--rel-tol", "-1"],
                                      ["--stride", "nan"],
                                      ["--stride", "1e-300"]],
                             ids=["window", "rel-tol", "stride",
                                  "stride-too-fine"])
    def test_bad_propagation_flag(self, runner, tmp_path, flag):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["run", ref, *flag])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert "error: propagation config:" in result.output

    def test_rel_tol_below_integrator_floor(self, runner, tmp_path):
        # solve_ivp would lift the value to 100 machine epsilons with a
        # warning, while config_hash and the record kept the requested one
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["run", ref, "--rel-tol", "1e-300",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "error: propagation config: rel_tol must be at least 2.22e-14" \
            in result.output
        assert not (tmp_path / "mini.csv").exists()

    def test_flag_overrides(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, [
            "run", ref, "--window", "-5", "6", "--stride", "0.5",
            "--rel-tol", "1e-9", "--abs-tol", "1e-9",
            "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "mini.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "-5"
        assert lines[-1].split(",")[0] == "6"


class TestWindowPastEnvelopeRange:
    """A window whose edges square past the float range is bad input."""

    def assert_one_error_line(self, result):
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith(
            "error: propagation config: the window must lie within")
        assert len(result.output.splitlines()) == 1

    def test_window_flag(self, runner, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        self.assert_one_error_line(runner.invoke(main, [
            "run", "fig2", "--window", "-1e200", "5", "--stride", "1e198"]))

    def test_scenario_file(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        ref = write_scenario(tmp_path, mini_dict(
            propagation={"t_start": -1e200, "stride": 1e198}))
        self.assert_one_error_line(runner.invoke(main, ["run", ref]))


class TestOutputPathRefused:
    """An output path the OS refuses is one ``error:`` line and exit 1.

    ``run``, ``reproduce`` and ``sweep`` create their directory before they
    integrate, so the integrator is patched to fail if it is reached.
    """

    def assert_one_error_line(self, result, reason):
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1
        assert result.output.startswith("error: ")
        assert reason in result.output
        assert len(result.output.splitlines()) == 1

    @pytest.fixture
    def a_file(self, tmp_path):
        path = tmp_path / "a-file"
        path.write_text("")
        return path

    def test_design_into_missing_directory(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.json"
        self.assert_one_error_line(runner.invoke(
            main, ["design", "fig2", "--out", str(out)]),
            "No such file or directory")

    @pytest.mark.parametrize("command", ["run", "reproduce"])
    def test_run_under_a_file(self, runner, a_file, monkeypatch, command):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        self.assert_one_error_line(runner.invoke(
            main, [command, "fig2", "--out", str(a_file / "sub")]),
            "Not a directory")

    def test_sweep_under_a_file(self, runner, a_file, monkeypatch):
        monkeypatch.setattr(stirapkit.propagation, "solve_ivp",
                            unreachable_solve_ivp)
        self.assert_one_error_line(runner.invoke(main, [
            "sweep", "fig2", "--axis", "width", "--values", "1,2",
            "--jobs", "1", "--out", str(a_file / "sub")]),
            "Not a directory")


@pytest.mark.parametrize("args", [
    ["run", "fig2", "--rel-tol", "abc"],
    ["sweep", "fig2", "--axis", "bogus", "--values", "1"],
    ["reproduce", "fig9"],
    ["bogus"],
    ["--bogus"],
], ids=["unparsable-float", "unknown-axis", "unknown-scenario",
        "unknown-command", "unknown-option"])
def test_usage_error_exits_1(runner, args):
    # exit 2 means a violated bound; click's own usage errors would use it
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "Usage:" in result.output
    assert "Error:" in result.output


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_no_seed_option(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert "--seed" not in result.output


class TestReproduce:
    def test_fig2(self, runner, tmp_path):
        result = runner.invoke(main, ["reproduce", "fig2", "--out",
                                      str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "bounds:       OK" in result.output
        record = json.loads((tmp_path / "fig2.json").read_text())
        assert record["summary"]["final_p_f"] >= 0.99
        assert record["design"]["verified"] is True

    def test_fig4_names_pruned_pumps(self, runner):
        result = runner.invoke(main, ["reproduce", "fig4"])
        assert result.exit_code == 0, result.output
        assert "pruned pumps: [1, 2]" in result.output.splitlines()

    def test_rejects_unknown_name(self, runner):
        result = runner.invoke(main, ["reproduce", "fig7"])
        assert result.exit_code != 0


@pytest.mark.parametrize("ref, label", [("fig2", "fig2"),
                                        ("./fig2", "not-fig2")])
def test_file_does_not_shadow_builtin(runner, tmp_path, monkeypatch, ref,
                                      label):
    write_scenario(tmp_path, mini_dict(label="not-fig2"), name="fig2")
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["design", ref])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["label"] == label


class TestVerifyAndDesign:
    def test_verify_ok(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["verify", ref])
        assert result.exit_code == 0
        assert "verified: True" in result.output

    def test_verify_names_pruned_pumps(self, runner):
        result = runner.invoke(main, ["verify", "fig4"])
        assert result.exit_code == 0, result.output
        assert "pruned:   [1, 2]" in result.output.splitlines()

    def test_verify_detects_breakage(self, runner, tmp_path):
        raw = mini_dict()
        raw["system"] = {"n_intermediate": 2, "n_degenerate": 2,
                         "mu_pump": [1.0, 1.0],
                         "mu_stokes": [[60.0, 40.0], [30.0, 80.0]]}
        raw["target"] = [0.0, 1.0]
        raw["fields"] = {"peak_rabi_pump": [40.0, -80.0],
                         "peak_rabi_stokes": [[60.0, 40.0], [30.0, 80.0]],
                         "width": 1.0}
        ref = write_scenario(tmp_path, raw)
        result = runner.invoke(main, ["verify", ref])
        assert result.exit_code == 2
        assert "verified: False" in result.output

    def test_design_report(self, runner, tmp_path):
        raw = mini_dict()
        del raw["fields"]
        raw["design"] = {"stokes_amplitudes": [120.0]}
        ref = write_scenario(tmp_path, raw)
        out_file = tmp_path / "report.json"
        result = runner.invoke(main, ["design", ref, "--out", str(out_file)])
        assert result.exit_code == 0, result.output
        report = json.loads(out_file.read_text())
        assert report["feasible"] is True
        assert report["verified"] is True
        assert report["peak_rabi_pump"] == [[60.0, 0.0]]

    def test_design_infeasible_exit(self, runner, tmp_path):
        ref = write_scenario(tmp_path, infeasible_design_dict())
        result = runner.invoke(main, ["design", ref])
        assert result.exit_code == 3
        assert '"feasible": false' in result.output

    def test_design_report_shows_requested_eta(self, runner, tmp_path):
        raw = mini_dict()
        del raw["fields"]
        raw["design"] = {"stokes_amplitudes": [120.0], "eta": [2.0, 1.0]}
        result = runner.invoke(main, ["design", write_scenario(tmp_path, raw)])
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout)
        assert report["eta"] == report["fitted_eta"] == [2.0, 1.0]

    def test_design_report_is_strict_json_when_det_overflows(self, runner,
                                                             tmp_path):
        # fig2's saved form with its dipoles x1e45: det S is past the
        # double range, and JSON has no infinity or NaN
        raw = stirapkit.scenarios.scenario_to_dict(
            stirapkit.scenarios.builtin_scenario("fig2"))
        system = raw["system"]
        system["mu_pump"] = [1e45 * v for v in system["mu_pump"]]
        system["mu_stokes"] = [[1e45 * v for v in row]
                               for row in system["mu_stokes"]]
        result = runner.invoke(main, ["design", write_scenario(tmp_path, raw)])
        assert result.exit_code == 0, result.output

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        report = json.loads(result.stdout, parse_constant=reject)
        assert report["feasible"] is True
        assert report["det_check"] is None
        assert report["selected_rows"] == list(range(1, 8))

    def test_design_zero_eta_reports_infeasible(self, runner, tmp_path):
        raw = mini_dict()
        del raw["fields"]
        raw["design"] = {"stokes_amplitudes": [120.0], "eta": 0}
        result = runner.invoke(main, ["design", write_scenario(tmp_path, raw)])
        assert result.exit_code == 3
        report = json.loads(result.stdout)
        assert report["feasible"] is False
        assert report["eta"] == [0.0, 0.0]
        assert report["notes"] == ["eta must be nonzero"]
        assert "verified" not in report
        assert "infeasible design:" not in result.output


class TestSweep:
    def test_sweep_table_and_csv(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, [
            "sweep", ref, "--axis", "amplitude-scale",
            "--values", "1,2", "--jobs", "1", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "max_P_y" in result.output
        sweep_csv = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0].startswith("value,")
        assert len(sweep_csv) == 3

    def test_sweep_records_failures(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, [
            "sweep", ref, "--axis", "eta", "--values", "0,1", "--jobs", "1"])
        # the eta=0 entry is infeasible, the sweep still completes
        assert result.exit_code == 3
        assert "ScenarioError" in result.output or "DesignError" in result.output

    def test_refused_output_file_is_one_entry(self, runner, tmp_path):
        # the OS refuses x2's trajectory file; x1 and x3 still run, and the
        # entry maps through the OSError row to exit 1
        (tmp_path / "fig2_amp_x2_.csv").mkdir()
        result = runner.invoke(main, [
            "sweep", "fig2", "--axis", "amplitude-scale", "--values", "1,2,3",
            "--jobs", "1", "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        statuses = [line.split(",", 5)[-1] for line in
                    (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(statuses) == 3
        assert statuses[0] == statuses[2] == "ok"
        assert statuses[1].startswith("IsADirectoryError: ")
        assert (tmp_path / "fig2_amp_x3_.json").is_file()

    @pytest.mark.parametrize("args", [
        ["--axis", "width", "--values=-1"],
        ["--axis", "phase-perturbation", "--values", "1", "--pump-index", "9"],
        ["--axis", "amplitude-scale", "--values", "1e307"],
    ], ids=["negative-width", "unknown-pump", "overflowing-amplitude"])
    def test_scenario_error_entry_exits_1(self, runner, tmp_path, args):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, ["sweep", ref, *args, "--jobs", "1"])
        assert result.exit_code == 1, result.output
        assert "ScenarioError" in result.output

    def test_values_with_one_label_exit_1(self, runner, tmp_path):
        # both values print as 1, so both runs would write mini_amp_x1_.*
        ref = write_scenario(tmp_path, mini_dict())
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "sweep", ref, "--axis", "amplitude-scale",
            "--values", "1.0000001,1.0000002", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(
            "error: sweep values 1.0000001 and 1.0000002 both give the run "
            "label 'mini[amp x1]'")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_1(self, runner, tmp_path, monkeypatch, jobs):
        def no_run(task):
            raise AssertionError("a run started")

        monkeypatch.setattr(stirapkit.scenarios, "_sweep_worker", no_run)
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, [
            "sweep", ref, "--axis", "width", "--values", "1,2",
            f"--jobs={jobs}"])
        assert result.exit_code == 1, result.output
        assert result.output.splitlines() == [
            f"error: sweep needs at least one job, got {jobs}"]

    def test_bad_values_string(self, runner, tmp_path):
        ref = write_scenario(tmp_path, mini_dict())
        result = runner.invoke(main, [
            "sweep", ref, "--axis", "width", "--values", "a,b"])
        assert result.exit_code == 1
