"""Command-line front end.

Exit codes: 0 success, 2 declared bound violated (or verification failed),
3 infeasible design, 4 numerical failure; scenario-file problems, bad flag
values, anything click cannot parse (an unknown command, option or choice)
and an output path the operating system refuses exit 1.  A sweep exits with
the worst code among its entries.
"""

import cmath
import json
import sys

import click

from .design import DesignError, check_feasibility, verify_design
from .propagation import PropagationError
from .scenarios import (RunRecord, ScenarioError, SweepEntry, SWEEP_AXES,
                        builtin_names, load_scenario, run as run_scenario,
                        sweep as run_sweep)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDS = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# How every command reports a failure: the first row whose class matches
# gives the message prefix and the exit code.
_FAILURES = ((ScenarioError, "error", EXIT_ERROR),
             (DesignError, "infeasible design", EXIT_INFEASIBLE),
             (PropagationError, "numerical failure", EXIT_NUMERICAL),
             (OSError, "error", EXIT_ERROR))


class _Commands(click.Group):
    """Reports a failure listed in ``_FAILURES`` and exits with its code.

    A usage error keeps click's message but exits ``EXIT_ERROR``, not
    click's 2, which here means a violated bound.
    """

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_ERROR
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_ERROR
            raise
        except tuple(cls for cls, _, _ in _FAILURES) as exc:
            prefix, code = next((prefix, code) for cls, prefix, code
                                in _FAILURES if isinstance(exc, cls))
            click.echo(f"{prefix}: {exc}", err=True)
            ctx.exit(code)


def _entry_exit_code(entry: SweepEntry) -> int:
    if entry.record is not None:
        return EXIT_OK if entry.record.bounds_ok else EXIT_BOUNDS
    # plain ValueErrors and RuntimeErrors, which the sweep also records,
    # count as numerical failures
    return next((code for cls, _, code in _FAILURES
                 if issubclass(entry.error_type, cls)), EXIT_NUMERICAL)


def _echo_record(record: RunRecord) -> None:
    click.echo(f"label:        {record.label}")
    click.echo(f"config hash:  {record.config_hash[:16]}")
    eta = record.design_eta
    click.echo(f"design:       verified={record.design_verified} "
               f"eta={eta:.6g} residual={record.design_residual:.3e}")
    if record.pruned_pumps:
        click.echo(f"pruned pumps: {list(record.pruned_pumps)}")
    click.echo(f"max P_x:      {record.max_p_x:.6e}")
    click.echo(f"max P_y:      {record.max_p_y:.6e}")
    click.echo(f"final P_f:    {record.final_p_f:.8f}")
    click.echo(f"norm error:   {record.max_norm_error:.3e}")
    if record.violations:
        for violation in record.violations:
            click.echo(f"BOUND VIOLATED: {violation}")
    else:
        click.echo("bounds:       OK")


def _run_one(scenario_ref, window, rel_tol, abs_tol, stride, out_dir):
    """Load SCENARIO_REF, apply the propagation flags given, run and report."""
    settings = {"rel_tol": rel_tol, "abs_tol": abs_tol, "output_stride": stride}
    if window is not None:
        settings["t_start"], settings["t_end"] = window
    scenario = load_scenario(scenario_ref).with_propagation(
        **{key: value for key, value in settings.items() if value is not None})
    record, _ = run_scenario(scenario, out_dir)
    _echo_record(record)
    if not record.bounds_ok:
        sys.exit(EXIT_BOUNDS)


_window_option = click.option(
    "--window", nargs=2, type=float, default=None, metavar="START END",
    help="Integration window in units of the pulse width.")
_rel_tol_option = click.option("--rel-tol", type=float, default=None,
                               help="Relative integration tolerance.")
_abs_tol_option = click.option("--abs-tol", type=float, default=None,
                               help="Absolute integration tolerance.")
_stride_option = click.option("--stride", type=float, default=None,
                              help="Output sampling stride in width units.")
_out_option = click.option("--out", "out_dir",
                           type=click.Path(file_okay=False), default=None,
                           help="Directory for trajectory and summary files.")


@click.group(cls=_Commands)
def main():
    """Design and simulate adiabatic transfer into degenerate manifolds."""


@main.command()
@click.argument("scenario_ref")
@click.option("--out", "out_file", type=click.Path(dir_okay=False),
              default=None, help="Write the report as JSON to this file.")
def design(scenario_ref, out_file):
    """Emit the feasibility/design report for SCENARIO_REF."""
    scenario = load_scenario(scenario_ref)
    problem = (scenario.system, scenario.target)
    report = (check_feasibility(*problem) if scenario.design is None
              else check_feasibility(*problem, scenario.design.eta))
    fields = None
    if scenario.fields is not None or report.feasible:
        fields = scenario.resolve_fields()

    def pair(value):
        return [value.real, value.imag]

    # det S may overflow at large dipoles; JSON has no infinity or NaN
    det = report.det_check
    payload = {
        "label": scenario.label,
        "feasible": report.feasible,
        "eta": pair(report.eta),
        "pruned_pumps": sorted(report.pruned_pumps),
        "selected_rows": list(report.selected_rows),
        "det_check": pair(det) if cmath.isfinite(det) else None,
        "effective_target_dipoles": list(map(pair,
                                             report.effective_target_dipoles)),
        "notes": list(report.notes),
    }
    if fields is not None:
        verdict = verify_design(scenario.system, fields, scenario.target)
        payload["verified"] = verdict.ok
        payload["residual"] = verdict.residual
        payload["fitted_eta"] = pair(verdict.eta)
        payload["peak_rabi_pump"] = list(map(pair, fields.peak_rabi_pump))
    text = json.dumps(payload, indent=2)
    if out_file:
        with open(out_file, "w") as handle:
            handle.write(text + "\n")
    click.echo(text)
    if not report.feasible:
        sys.exit(EXIT_INFEASIBLE)


@main.command()
@click.argument("scenario_ref")
def verify(scenario_ref):
    """Check the pump/Stokes phase-matching condition of SCENARIO_REF."""
    scenario = load_scenario(scenario_ref)
    fields = scenario.resolve_fields()
    verdict = verify_design(scenario.system, fields, scenario.target)
    click.echo(f"verified: {verdict.ok}")
    click.echo(f"residual: {verdict.residual:.6e}")
    click.echo(f"eta:      {verdict.eta:.8g}")
    if verdict.pruned:
        click.echo(f"pruned:   {sorted(verdict.pruned)}")
    if not verdict.ok:
        sys.exit(EXIT_BOUNDS)


@main.command(name="run")
@click.argument("scenario_ref")
@_window_option
@_rel_tol_option
@_abs_tol_option
@_stride_option
@_out_option
def run_cmd(scenario_ref, window, rel_tol, abs_tol, stride, out_dir):
    """Execute one scenario: design/verify, propagate, check bounds."""
    _run_one(scenario_ref, window, rel_tol, abs_tol, stride, out_dir)


@main.command()
@click.argument("name", type=click.Choice(builtin_names()))
@_window_option
@_rel_tol_option
@_abs_tol_option
@_stride_option
@_out_option
def reproduce(name, window, rel_tol, abs_tol, stride, out_dir):
    """Run one of the built-in reference scenarios."""
    _run_one(name, window, rel_tol, abs_tol, stride, out_dir)


@main.command(name="sweep")
@click.argument("scenario_ref")
@click.option("--axis", required=True, type=click.Choice(SWEEP_AXES))
@click.option("--values", required=True,
              help="Comma-separated axis values, e.g. '1,2,4'.")
@click.option("--pump-index", type=int, default=1, show_default=True,
              help="Pump channel for phase-perturbation sweeps.")
@click.option("--jobs", type=int, default=None,
              help="Parallel workers (default: one per CPU; never more than "
                   "one per value).")
@_out_option
def sweep_cmd(scenario_ref, axis, values, pump_index, jobs, out_dir):
    """Run SCENARIO_REF once per axis value and tabulate the results."""
    scenario = load_scenario(scenario_ref)
    try:
        parsed = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"could not parse --values {values!r}") from None
    entries = run_sweep(scenario, axis, parsed, pump_index=pump_index,
                        jobs=jobs, out_dir=out_dir)
    click.echo(f"{'value':>12}  {'max_P_x':>12}  {'max_P_y':>12}  "
               f"{'final_P_f':>12}  {'1-P_f':>12}  status")
    for entry in entries:
        rec = entry.record
        numbers = ([f"{'-':>12}"] * 4 if rec is None else
                   [f"{rec.max_p_x:>12.4e}", f"{rec.max_p_y:>12.4e}",
                    f"{rec.final_p_f:>12.8f}", f"{1.0 - rec.final_p_f:>12.4e}"])
        click.echo("  ".join([f"{entry.value:>12g}", *numbers, entry.status]))
    sys.exit(max(map(_entry_exit_code, entries)))


if __name__ == "__main__":
    main()
