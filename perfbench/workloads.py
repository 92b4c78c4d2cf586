"""The three benchmark workloads: inputs, one operation, and its checks.

Every operation goes through stirapkit's public surface: the ``reproduce``
and ``sweep`` commands through ``stirapkit.cli.main`` in-process, the
design checks through the package namespace.  Each workload splits into
``prepare`` (inputs, untimed), ``run_op`` (timed) and ``check`` (untimed,
reads what the operation left behind).
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

FIGURES = ("fig2", "fig3", "fig4", "fig5")
SWEEP_SCENARIO = "fig2"
SWEEP_AXIS = "amplitude-scale"
SWEEP_VALUES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

# Largest accepted distance between the final amplitude moduli an output
# reports and the rtol=atol=1e-12 reference.  The default rtol=1e-10 runs
# sit two orders of magnitude below it.
STATE_TOL = 1e-6

# Accuracy gates of the design checks, as in the acceptance suite.
NULL_RESIDUAL_TOL = 1e-12
NULL_DISTANCE_TOL = 1e-10
TRACK_DISTANCE_TOL = 1e-8
COUPLING_TOL = 1e-8

# Every size pair with N in 2..7 and M in 1..N+1, once per pass: the same
# mix of sizes for every seed, so seeds differ in values, not in cost.  The
# M = N+1 entries (6 of 33, about one in six) are infeasible requests.
DESIGN_SIZES = tuple((n, m) for n in range(2, 8) for m in range(1, n + 2))
DESIGN_TIMES = 4
TRACK_WINDOW = (-4.0, 5.0)
TRACK_POINTS = 201

EXIT_OK = 0
EXIT_BOUNDS = 2

REFS_PATH = Path(__file__).with_name("refs.json")


def load_refs(path=REFS_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def slug(label: str) -> str:
    """File stem ``stirapkit.scenarios.run`` uses for a scenario label."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in label)


def sweep_label(value: float) -> str:
    return f"{SWEEP_SCENARIO}[amp x{value:g}]"


def call_cli(sk, argv):
    """Run one ``stirapkit`` command in-process and return its exit code.

    An exception that escapes the command is returned as its description,
    which never equals an expected exit code.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            sk.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            return f"{type(exc).__name__}: {exc}"
        else:
            code = EXIT_OK
    return EXIT_OK if code is None else code


# ---------------------------------------------------------------------------
# Output checks shared by reproduce and sweep-amplitude


def verdict_from_output(bounds: dict, output: dict) -> bool:
    """Bound verdict recomputed from the written time series.

    A comparison with NaN is false, so a non-finite column breaks the
    verdict here instead of passing it.
    """
    checks = []
    if bounds.get("max_p_x") is not None:
        checks.append(np.max(output["p_x"]) < bounds["max_p_x"])
    if bounds.get("max_p_y") is not None:
        checks.append(np.max(output["p_y"]) < bounds["max_p_y"])
    if bounds.get("min_final_p_f") is not None:
        checks.append(output["p_f"][-1] >= bounds["min_final_p_f"])
    return bool(all(checks)) and bool(np.isfinite(output["table"]).all())


def state_error(ref_state, final_populations) -> float:
    """Distance between output amplitude moduli and the reference state.

    The outputs carry populations, so the phase of each component is aligned
    to the reference before the Euclidean distance is taken.
    """
    ref = np.array([complex(re, im) for re, im in ref_state])
    pops = np.asarray(final_populations, dtype=float)
    if pops.shape != ref.shape or not np.isfinite(pops).all():
        return math.inf
    return float(np.linalg.norm(np.sqrt(np.maximum(pops, 0.0)) - np.abs(ref)))


def check_point(ref: dict, output: dict) -> tuple[list[str], float]:
    """Failures of one run's output against its frozen reference.

    ``output`` holds the parsed time series (``table``, ``populations`` of
    the last row, ``p_x``, ``p_y``, ``p_f``) and ``reported_ok``, the verdict
    the program itself reported.  Returns the failure reasons (empty when
    the run is correct) and the final-state error.
    """
    failures = []
    if not np.isfinite(output["table"]).all():
        failures.append("non-finite value in the time series")
    err = state_error(ref["final_state"], output["populations"])
    if not err <= STATE_TOL:
        failures.append(f"final state off by {err:.3e} (> {STATE_TOL:g})")
    if verdict_from_output(ref["bounds"], output) != ref["bounds_ok"]:
        failures.append("recomputed bound verdict differs from the reference")
    if output["reported_ok"] != ref["bounds_ok"]:
        failures.append("reported bound verdict differs from the reference")
    return failures, err


def read_output(out_dir: Path, stem: str, dim: int) -> dict:
    """Parse ``<stem>.csv`` and ``<stem>.json`` written by one run."""
    table = np.atleast_2d(np.loadtxt(out_dir / f"{stem}.csv", delimiter=",",
                                     skiprows=1))
    record = json.loads((out_dir / f"{stem}.json").read_text())
    return {
        "table": table,
        "populations": table[-1, 1:1 + dim],
        "p_x": table[:, 1 + dim],
        "p_y": table[:, 2 + dim],
        "p_f": table[:, 3 + dim],
        "reported_ok": record["bounds_ok"],
    }


def _check_outputs(refs: dict, out_dir: Path, stems: dict,
                   reported: dict) -> tuple[list[str], float]:
    failures, worst = [], 0.0
    for key, ref in refs.items():
        try:
            output = read_output(out_dir, stems[key], len(ref["final_state"]))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"{key}: unreadable output ({exc})")
            worst = math.inf
            continue
        if key in reported and reported[key] != output["reported_ok"]:
            failures.append(f"{key}: summary table disagrees with the record")
        point_failures, err = check_point(ref, output)
        failures += [f"{key}: {reason}" for reason in point_failures]
        worst = max(worst, err)
    return failures, worst


# ---------------------------------------------------------------------------
# reproduce


class Reproduce:
    name = "reproduce"

    def __init__(self, refs: dict):
        self.refs = refs["reproduce"]

    def prepare(self, seed, work_dir):
        return list(FIGURES)

    def run_op(self, sk, op, out_dir):
        return call_cli(sk, ["reproduce", op, "--out", str(out_dir)])

    def check(self, op, exit_code, out_dir):
        ref = self.refs[op]
        failures, err = _check_outputs({op: ref}, out_dir, {op: slug(op)}, {})
        expected = EXIT_OK if ref["bounds_ok"] else EXIT_BOUNDS
        if exit_code != expected:
            failures.append(f"exit code {exit_code}, expected {expected}")
        return failures, {"max_state_err": (err, STATE_TOL)}


# ---------------------------------------------------------------------------
# sweep-amplitude


def _read_sweep_table(path: Path) -> dict:
    """Status column of ``sweep.csv`` keyed by the axis value."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return {f"{float(row[0]):g}": row[-1] == "ok" for row in rows}


class SweepAmplitude:
    name = "sweep-amplitude"

    def __init__(self, refs: dict):
        self.refs = {f"{p['value']:g}": p
                     for p in refs["sweep-amplitude"]["points"]}

    def prepare(self, seed, work_dir):
        return ["sweep"]

    def run_op(self, sk, op, out_dir):
        values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
        return call_cli(sk, ["sweep", SWEEP_SCENARIO, "--axis", SWEEP_AXIS,
                             "--values", values, "--out", str(out_dir)])

    def check(self, op, exit_code, out_dir):
        stems = {key: slug(sweep_label(float(key))) for key in self.refs}
        try:
            reported = _read_sweep_table(out_dir / "sweep.csv")
        except (OSError, ValueError, IndexError) as exc:
            return ([f"unreadable sweep.csv ({exc})"],
                    {"max_state_err": (math.inf, STATE_TOL)})
        failures, err = _check_outputs(self.refs, out_dir, stems, reported)
        if sorted(reported) != sorted(self.refs):
            failures.append("sweep.csv does not list every axis value")
        all_ok = all(ref["bounds_ok"] for ref in self.refs.values())
        expected = EXIT_OK if all_ok else EXIT_BOUNDS
        if exit_code != expected:
            failures.append(f"exit code {exit_code}, expected {expected}")
        return failures, {"max_state_err": (err, STATE_TOL)}


# ---------------------------------------------------------------------------
# design-check


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def draw_case(rng, label: str, n: int, m: int) -> tuple[dict, dict]:
    """One random N-intermediate, M-degenerate design scenario.

    Returns the scenario document and the facts the check needs about it.
    For M <= N the Stokes dipole block is redrawn until its condition number
    is below 1e5; M > N is an infeasible request.
    """
    excess = m > n
    while True:
        mu_stokes = _crandn(rng, n, m)
        if excess:
            break
        singular = np.linalg.svd(mu_stokes, compute_uv=False)
        if singular[0] / singular[-1] < 1e5:
            break
    mu_pump = _crandn(rng, n)
    target = _crandn(rng, m)
    target /= np.linalg.norm(target)
    eta = rng.uniform(0.7, 1.4) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    scenario = {
        "label": label,
        "system": {
            "n_intermediate": n,
            "n_degenerate": m,
            "mu_pump": _pairs(mu_pump),
            "mu_stokes": [_pairs(row) for row in mu_stokes],
        },
        "target": _pairs(target),
        "design": {
            "eta": [float(eta.real), float(eta.imag)],
            "stokes_amplitudes": [float(a) for a in rng.uniform(50, 150, n)],
            "stokes_phases": [float(p) for p in rng.uniform(0, 2 * np.pi, n)],
        },
    }
    facts = {
        "n": n,
        "m": m,
        "feasible": not excess,
        "times": [float(t) for t in rng.uniform(-1.5, 2.5, DESIGN_TIMES)],
    }
    return scenario, facts


def generate_cases(seed: int, directory: Path) -> list[dict]:
    """Write one scenario file per entry of :data:`DESIGN_SIZES`.

    The seed draws dipoles, targets, Stokes amplitudes and phases, eta, the
    check times and the order of the files; the same seed always yields
    byte-identical files.
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for index, size in enumerate(rng.permutation(len(DESIGN_SIZES))):
        n, m = DESIGN_SIZES[size]
        label = f"design-{seed}-{index:03d}"
        scenario, facts = draw_case(rng, label, n, m)
        path = directory / f"{label}.json"
        path.write_text(json.dumps(scenario, sort_keys=True) + "\n")
        cases.append(dict(facts, path=str(path), label=label))
    return cases


def intermediate_null_seeds(fields) -> list[np.ndarray]:
    """Null eigenvectors supported on the intermediate states alone.

    With fewer degenerate than intermediate states, intermediate amplitudes
    annihilated by the conjugate Stokes block give a null eigenvector at
    every time; they are the carrier's degenerate partners.
    """
    _, singular, vh = np.linalg.svd(fields.peak_rabi_stokes.conj().T)
    rank = int((singular > 1e-12 * singular[0]).sum())
    n, m = fields.n_intermediate, fields.n_degenerate
    seeds = []
    for x in vh[rank:].conj():
        v = np.zeros(1 + n + m, dtype=complex)
        v[1:1 + n] = x
        seeds.append(v)
    return seeds


def design_check_op(sk, case: dict) -> dict:
    """Load, design, verify and null-space-check one scenario file."""
    result = {"residual": 0.0, "distance": 0.0, "track": 0.0, "chi": 0.0,
              "problems": []}
    problems = result["problems"]
    scenario = sk.load_scenario(case["path"])
    system, target = scenario.system, scenario.target
    report = sk.check_feasibility(system, target, scenario.design.eta)
    if not case["feasible"]:
        if report.feasible:
            problems.append("M > N draw reported feasible")
        try:
            scenario.resolve_fields()
            problems.append("fields designed for an M > N draw")
        except sk.DesignError:
            pass
        return result
    if not report.feasible:
        problems.append("feasible draw reported infeasible")
        return result
    fields = scenario.resolve_fields()
    if not sk.verify_design(system, fields, target).ok:
        problems.append("designed fields fail verification")
        return result

    n, m = system.n_intermediate, system.n_degenerate
    for t in case["times"]:
        h = sk.hamiltonian(system, fields, t)
        carrier = sk.analytic_lambda1(system, fields, t, target).components
        residual = float(np.linalg.norm(h @ carrier) / np.linalg.norm(h, 2))
        basis = sk.numeric_null_space(h, tol=1e-9 * fields.max_rabi,
                                      system=system, time=t)
        if len(basis) != 1 + n - m:
            problems.append(f"null space of dimension {len(basis)} at t={t:g}, "
                            f"expected {1 + n - m}")
            distance = math.inf
        else:
            rows = np.array([v.components for v in basis])
            projected = rows.T @ (rows.conj() @ carrier)
            distance = sk.phase_aligned_distance(
                projected / np.linalg.norm(projected), carrier)
        result["residual"] = max(result["residual"], residual)
        result["distance"] = max(result["distance"], distance)

    def sampler(t):
        return sk.hamiltonian(system, fields, t)

    grid = np.linspace(*TRACK_WINDOW, TRACK_POINTS)
    seeds = [sk.analytic_lambda1(system, fields, grid[0], target)]
    seeds += [sk.make_null_vector(v, grid[0], system)
              for v in intermediate_null_seeds(fields)]
    if len(seeds) != 1 + n - m:
        problems.append(f"{len(seeds) - 1} partner seeds, expected {n - m}")
    if len(seeds) == 1:
        frames = sk.track_null_frame(sampler, seeds, grid, system=system)
        final = sk.analytic_lambda1(system, fields, grid[-1], target)
        result["track"] = sk.phase_aligned_distance(
            frames[-1][0].components, final.components)
        return result

    def tracks_for(g):
        # the whole frame is tracked; the carrier's coupling to the last
        # partner is the converged figure
        frames = sk.track_null_frame(sampler, seeds, g, system=system)
        return [f[0] for f in frames], [f[-1] for f in frames]

    chi, _, converged = sk.converged_max_coupling(
        tracks_for, grid[0], grid[-1], n_points=TRACK_POINTS,
        atol=1e-10 / fields.width)
    if not converged:
        problems.append("carrier-partner coupling did not converge")
    result["chi"] = chi
    return result


class DesignCheck:
    name = "design-check"

    def __init__(self, refs: dict):
        pass

    def prepare(self, seed, work_dir):
        return generate_cases(seed, Path(work_dir) / "design")

    def run_op(self, sk, op, out_dir):
        try:
            return design_check_op(sk, op)
        except (ValueError, RuntimeError) as exc:
            return {"problems": [f"{type(exc).__name__}: {exc}"],
                    "residual": math.inf, "distance": math.inf,
                    "track": math.inf, "chi": math.inf}

    def check(self, op, result, out_dir):
        failures = list(result["problems"])
        errors = {}
        for key, name, tol in (
                ("residual", "max_null_residual", NULL_RESIDUAL_TOL),
                ("distance", "max_null_distance", NULL_DISTANCE_TOL),
                ("track", "max_track_distance", TRACK_DISTANCE_TOL),
                ("chi", "max_coupling", COUPLING_TOL)):
            value = float(result[key])
            if not value <= tol:
                failures.append(f"{key} {value:.3e} above {tol:g}")
            errors[name] = (value, tol)
        return failures, errors


WORKLOADS = {cls.name: cls for cls in (Reproduce, SweepAmplitude, DesignCheck)}
