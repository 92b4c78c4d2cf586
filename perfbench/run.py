"""stirapkit benchmark: one workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced passes of the workload and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  Each operation is preceded by a timed run of
the fixed computation in ``reference.py``, and the end-to-end timings are in
multiples of its time (see that module for why).  Every operation's output
is checked against
the frozen references in ``refs.json``; a failed check counts as a failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
# Reference times on either side of an operation whose median divides its
# latency: enough to smooth the reference's own jitter, few enough to follow
# the host's speed within a pass.
REF_WINDOW = 2
CHILD_TIMEOUT_S = 60
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import stirapkit and its CLI from the checkout's ``src`` tree."""
    if not (SRC / "stirapkit" / "__init__.py").is_file():
        fail(f"no stirapkit sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import stirapkit
    import stirapkit.cli
    return stirapkit, time.perf_counter() - t0


def setup_child(args) -> None:
    """Set-up measured in a fresh interpreter: imports, inputs, references."""
    sk, import_s = import_package()
    from workloads import WORKLOADS, load_refs
    work = OUT / f"setup-{os.getpid()}"
    try:
        WORKLOADS[args.workload](load_refs()).prepare(args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))


def measure_setup(args, samples: int) -> tuple[list[float], list[float]]:
    """Wall time of ``samples`` fresh set-up interpreters, one at a time."""
    walls, imports = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class Pass(NamedTuple):
    """Timings of one pass, the reference computations left out."""

    wall: float
    cpu: float
    latencies: list
    refs: list  # seconds of the reference computation before each operation

    @property
    def ref(self) -> float:
        return statistics.median(self.refs)


def op_label(op) -> str:
    return op if isinstance(op, str) else op["label"]


def dir_bytes(path: Path) -> int:
    """Total size of the files an operation left in its output directory."""
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no such percentile exists, and the
    maximum is reported instead, labelled as such.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"


class Runner:
    """Runs passes of one workload and checks every operation's output."""

    def __init__(self, sk, workload, ops, work: Path):
        import reference  # numpy and scipy load after stirapkit's timed import
        self.reference = reference.seconds
        self.sk = sk
        self.workload = workload
        self.ops = ops
        self.work = work
        self.attempted = 0
        self.failures = []
        self.max_errors = {}
        self.op_seconds = {op_label(op): [] for op in ops}
        self._dirs = 0

    def run_pass(self, tracer=None, ops=None) -> Pass:
        """One pass over ``ops`` (default: every operation).

        Before each operation the garbage the previous one left is
        collected, untimed, and the reference computation is timed.  Without
        the collection the reference runs up to twice as slow after a
        ``reproduce`` figure, so it would measure the previous operation's
        leftovers instead of the host's speed.
        """
        results = []
        latencies = []
        refs = []
        ref_cpu = 0.0
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        for op in self.ops if ops is None else ops:
            out_dir = self.work / f"out-{self._dirs}"
            self._dirs += 1
            gc.collect()
            c0 = time.process_time()
            refs.append(self.reference())
            ref_cpu += time.process_time() - c0
            t0 = time.perf_counter()
            if tracer is None:
                raw = self.workload.run_op(self.sk, op, out_dir)
            else:
                with tracer.op(op_label(op)):
                    raw = self.workload.run_op(self.sk, op, out_dir)
            latencies.append(time.perf_counter() - t0)
            results.append((op, raw, out_dir))
            if tracer is not None:
                tracer.count("scenarios.write.bytes", dir_bytes(out_dir),
                             op=op_label(op))
        wall = time.perf_counter() - start - sum(refs)
        cpu = cpu_seconds() - cpu0 - ref_cpu
        for (op, raw, out_dir), seconds in zip(results, latencies):
            failures, errors = self.workload.check(op, raw, out_dir)
            shutil.rmtree(out_dir, ignore_errors=True)
            self.attempted += 1
            for name, (value, tol) in errors.items():
                worst = self.max_errors.get(name, (0.0, tol))[0]
                self.max_errors[name] = (max(worst, value), tol)
            if failures:
                self.failures.append((op_label(op), failures))
            if tracer is None:
                self.op_seconds[op_label(op)].append(seconds)
        return Pass(wall, cpu, latencies, refs)


def environment(args, sk) -> dict:
    import importlib.metadata as md
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema", "click"):
        try:
            versions[dist] = md.version(dist)
        except md.PackageNotFoundError:
            versions[dist] = None
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "stirapkit": sk.__version__,
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def accuracy_digits(max_errors: dict) -> float:
    """Decimal digits by which the worst error stays inside its tolerance.

    ``-log10`` of the largest error-to-tolerance ratio of the run, so it is
    positive while every check passes and grows as results get more
    accurate.  The log scale keeps roundoff-level figures comparable across
    seeds.
    """
    ratio = max(value / tol for value, tol in max_errors.values())
    return -math.log10(min(max(ratio, 1e-300), 1e300))


def local_medians(values: list, half: int = REF_WINDOW) -> list:
    """Median of each value and its ``half`` neighbours on either side."""
    return [statistics.median(values[max(0, i - half):i + half + 1])
            for i in range(len(values))]


def end_to_end(runner, passes, setup_walls, seconds_used) -> tuple[dict, dict]:
    """Gated metrics, and the raw seconds behind them in ``detail``.

    Each operation's latency is divided by the median of the reference times
    next to it (see :data:`REF_WINDOW`); a pass's relative wall time is the
    sum of its operations' relative latencies.
    """
    walls = [p.wall for p in passes]
    latencies = [x for p in passes for x in p.latencies]
    refs = local_medians([r for p in passes for r in p.refs])
    rel_latencies = [x / r for x, r in zip(latencies, refs)]
    rel_walls, first = [], 0
    for p in passes:
        rel_walls.append(sum(rel_latencies[first:first + len(p.latencies)]))
        first += len(p.latencies)
    tail_s, _ = tail(latencies)
    tail_rel, tail_label = tail(rel_latencies)
    metrics = {
        "wall_rel": metric(statistics.median(rel_walls), "ref"),
        "op_p50_rel": metric(statistics.median(rel_latencies), "ref"),
        "op_tail_rel": metric(tail_rel, "ref"),
        "setup_s": metric(statistics.median(setup_walls), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "accuracy_digits": metric(accuracy_digits(runner.max_errors),
                                  "digits"),
    }
    detail = {
        "raw": {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "cpu_s": statistics.median(p.cpu for p in passes),
            "ref_ms": 1e3 * statistics.median(p.ref for p in passes),
        },
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_ref_ms": [1e3 * p.ref for p in passes],
        "ops": len(latencies),
        "op_tail": tail_label,
        "setup_samples_s": setup_walls,
        "measured_s": seconds_used,
        "max_errors": {name: {"value": value, "tolerance": tol}
                       for name, (value, tol) in runner.max_errors.items()},
        "fail_ratio": (len(runner.failures) / runner.attempted
                       if runner.attempted else 0.0),
    }
    return metrics, detail


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.setup_child:
        setup_child(args)
        return
    sk, _ = import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    if not workloads.REFS_PATH.is_file():
        fail(f"missing reference file {workloads.REFS_PATH}")

    setup_walls, setup_imports = measure_setup(args, SETUP_SAMPLES)

    work = OUT / f"work-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](workloads.load_refs())
        ops = workload.prepare(args.seed, work)
        runner = Runner(sk, workload, ops, work)
        # warm-up: lazy imports, caches and first-call costs
        runner.run_pass(ops=ops[:1])
        warm_attempted = runner.attempted
        for samples in runner.op_seconds.values():
            samples.clear()
        if args.trace:
            metrics, detail = traced_run(args, sk, runner, setup_imports)
        else:
            metrics, detail = untraced_run(args, runner, setup_walls)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["warmup_ops"] = warm_attempted
    detail["failures"] = runner.failures[:20]
    env = environment(args, sk)
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"env": env, "detail": detail, "metrics": metrics}, indent=1) + "\n")
    for key, entry in metrics.items():
        print(f"{key:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))


def fits(start: float, seconds: float, last: float) -> bool:
    """Whether another round as long as the last one ends within budget."""
    return time.perf_counter() - start + last <= seconds


def untraced_run(args, runner, setup_walls):
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or fits(start, args.seconds, last):
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        last = time.perf_counter() - t0
    return end_to_end(runner, passes, setup_walls,
                      time.perf_counter() - start)


def traced_run(args, sk, runner, setup_imports):
    from layers import PassTotals, per_layer, write_spans
    from spans import Tracer
    untraced, traced = [], []
    start = time.perf_counter()
    last = 0.0
    while not traced or fits(start, args.seconds, last):
        t0 = time.perf_counter()
        untraced.append(runner.run_pass().wall)
        tracer = Tracer()
        tracer.install(sk)
        try:
            wall = runner.run_pass(tracer).wall
        finally:
            tracer.uninstall()
        traced.append(PassTotals(wall, tracer))
        last = time.perf_counter() - t0
        if len(traced) == 1:
            write_spans(tracer, OUT / f"spans-{args.workload}"
                                      f"-seed{args.seed}.jsonl")
    return per_layer(untraced, traced, setup_imports, runner.op_seconds)


if __name__ == "__main__":
    main()
