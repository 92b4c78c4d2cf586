"""Per-layer metrics from the traced passes of one workload.

Every value is per traced pass (the mean over the traced passes of the run),
so counts read as exact integers and times as milliseconds per pass.  Which
end-to-end metric each one should move is listed in ``README.md``.
"""

import json
import statistics
from collections import defaultdict

from spans import totals

# metric name -> (unit, span or counter keys it is read from).  A metric is
# reported absent when the tracer could install no wrapper for one of its
# keys, because the package no longer has the function it wraps.
METRICS = {
    "cli.import_ms": ("ms", ()),
    "cli.self_ms": ("ms", ("cli.main",)),
    "scenarios.load.calls": ("count", ("scenarios.load",)),
    "scenarios.load.self_ms": ("ms", ("scenarios.load",)),
    "scenarios.run.self_ms": ("ms", ("scenarios.run",)),
    "scenarios.write.self_ms": ("ms", ("scenarios.write",)),
    "scenarios.write.bytes": ("B", ()),
    "scenarios.sweep.points": ("count", ("scenarios.sweep",)),
    "scenarios.sweep.worker_cpu_ms": ("ms", ("scenarios.sweep",
                                             "scenarios.sweep.pool")),
    "scenarios.sweep.parallel_efficiency": ("1", ("scenarios.sweep",
                                                  "scenarios.sweep.pool")),
    "design.calls": ("count", ("design.check_feasibility",
                               "design.design_fields", "design.verify_design")),
    "design.self_ms": ("ms", ("design.check_feasibility",
                              "design.design_fields", "design.verify_design")),
    "design.infeasible": ("count", ("design.check_feasibility",)),
    "nullspace.null_space.calls": ("count", ("nullspace.null_space",)),
    "nullspace.null_space.self_ms": ("ms", ("nullspace.null_space",)),
    "nullspace.lambda1.self_ms": ("ms", ("nullspace.lambda1",)),
    "nullspace.track.points": ("count", ("nullspace.track",)),
    "nullspace.track.self_ms": ("ms", ("nullspace.track",)),
    "nullspace.track.us_per_point": ("us", ("nullspace.track",)),
    "nullspace.coupling.grid_points": ("count", ("nullspace.coupling",)),
    "nullspace.coupling.converged_ratio": ("1", ("nullspace.coupling",)),
    "model.hamiltonian.calls": ("count", ("model.hamiltonian",)),
    "model.hamiltonian.self_ms": ("ms", ("model.hamiltonian",)),
    "propagation.propagate.calls": ("count", ("propagation.propagate",)),
    "propagation.propagate.self_ms": ("ms", ("propagation.propagate",)),
    "propagation.solver.self_ms": ("ms", ("propagation.solver",)),
    "propagation.rhs.calls": ("count", ("propagation.rhs",)),
    "propagation.rhs.self_ms": ("ms", ("propagation.rhs",)),
    "propagation.rhs.us_per_call": ("us", ("propagation.rhs",)),
    "propagation.rhs.flops_per_call": ("flop", ("propagation.rhs",)),
    "bench.self_ms": ("ms", ()),
    "trace.overhead_ms": ("ms", ()),
}

SWEEP_NOTE = ("sweep points run in the pool's child processes; their spans "
              "are not visible, so a sweep reports only points, worker CPU, "
              "parallel efficiency and bytes written")


class PassTotals:
    """Reduced spans and counters of one traced pass."""

    def __init__(self, wall_s, tracer):
        self.wall_s = wall_s
        self.calls, self.self_ns = totals(tracer.spans)
        self.counters = dict(tracer.counters)
        self.op_counters = dict(tracer.op_counters)
        self.absent = tracer.absent


def _safe_ratio(num, den):
    return num / den if den else 0.0


def layer_values(passes: list[PassTotals], setup_imports, overhead_ms):
    """Every metric of :data:`METRICS`, per pass, before absence filtering."""
    n = len(passes)

    def calls(*names):
        return sum(c for p in passes for (_, name), c in p.calls.items()
                   if name in names) / n

    def self_ms(*names):
        return sum(s for p in passes for (_, name), s in p.self_ns.items()
                   if name in names) / n / 1e6

    def counter(key):
        return sum(p.counters.get(key, 0.0) for p in passes) / n

    design = ("design.check_feasibility", "design.design_fields",
              "design.verify_design")
    pools = counter("scenarios.sweep.pools")
    workers = _safe_ratio(counter("scenarios.sweep.workers"), pools)
    worker_cpu_ms = counter("scenarios.sweep.worker_cpu_ns") / 1e6
    sweep_wall_ms = counter("scenarios.sweep.wall_ns") / 1e6
    rhs_spans = calls("propagation.rhs")
    return {
        "cli.import_ms": 1e3 * statistics.median(setup_imports),
        "cli.self_ms": self_ms("cli.main"),
        "scenarios.load.calls": calls("scenarios.load"),
        "scenarios.load.self_ms": self_ms("scenarios.load"),
        "scenarios.run.self_ms": self_ms("scenarios.run"),
        "scenarios.write.self_ms": self_ms("scenarios.write"),
        "scenarios.write.bytes": counter("scenarios.write.bytes"),
        "scenarios.sweep.points": counter("scenarios.sweep.points"),
        "scenarios.sweep.worker_cpu_ms": worker_cpu_ms,
        "scenarios.sweep.parallel_efficiency": _safe_ratio(
            worker_cpu_ms, sweep_wall_ms * workers),
        "design.calls": calls(*design),
        "design.self_ms": self_ms(*design),
        "design.infeasible": counter("design.infeasible"),
        "nullspace.null_space.calls": calls("nullspace.null_space"),
        "nullspace.null_space.self_ms": self_ms("nullspace.null_space"),
        "nullspace.lambda1.self_ms": self_ms("nullspace.lambda1"),
        "nullspace.track.points": counter("nullspace.track.points"),
        "nullspace.track.self_ms": self_ms("nullspace.track"),
        "nullspace.track.us_per_point": 1e3 * _safe_ratio(
            self_ms("nullspace.track"), counter("nullspace.track.points")),
        "nullspace.coupling.grid_points": counter(
            "nullspace.coupling.grid_points"),
        "nullspace.coupling.converged_ratio": _safe_ratio(
            counter("nullspace.coupling.converged"),
            calls("nullspace.coupling")),
        "model.hamiltonian.calls": calls("model.hamiltonian"),
        "model.hamiltonian.self_ms": self_ms("model.hamiltonian"),
        "propagation.propagate.calls": calls("propagation.propagate"),
        "propagation.propagate.self_ms": self_ms("propagation.propagate"),
        "propagation.solver.self_ms": self_ms("propagation.solver"),
        "propagation.rhs.calls": counter("propagation.rhs.calls"),
        "propagation.rhs.self_ms": self_ms("propagation.rhs"),
        "propagation.rhs.us_per_call": 1e3 * _safe_ratio(
            self_ms("propagation.rhs"), rhs_spans),
        "propagation.rhs.flops_per_call": _safe_ratio(
            counter("propagation.rhs.flops"),
            counter("propagation.rhs.calls")),
        "bench.self_ms": self_ms("op"),
        "trace.overhead_ms": overhead_ms,
    }


def per_op_breakdown(passes: list[PassTotals], untraced_op_s: dict) -> dict:
    """Per operation: median traced wall, layer self-time sum, RHS calls.

    The traced wall is the sum of all self times under the operation's root
    span; the layer sum leaves out the root's own (benchmark) time.
    """
    walls, layers = defaultdict(list), defaultdict(list)
    for p in passes:
        wall, layer = defaultdict(int), defaultdict(int)
        for (op, name), ns in p.self_ns.items():
            wall[op] += ns
            if name != "op":
                layer[op] += ns
        for op in wall:
            walls[op].append(wall[op] / 1e6)
            layers[op].append(layer[op] / 1e6)
    first = passes[0]
    out = {}
    for op in walls:
        entry = {"traced_wall_ms": statistics.median(walls[op]),
                 "layer_self_ms": statistics.median(layers[op]),
                 "rhs_calls": first.op_counters.get(
                     (op, "propagation.rhs.calls"), 0),
                 "rhs_timed_calls": first.calls.get((op, "propagation.rhs"), 0)}
        times = untraced_op_s.get(op)
        if times:
            entry["untraced_wall_ms"] = 1e3 * statistics.median(times)
            entry["overhead_ms"] = (entry["traced_wall_ms"]
                                    - entry["untraced_wall_ms"])
        out[op] = entry
    return out


def write_spans(tracer, path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def per_layer(untraced_walls, passes, setup_imports, untraced_op_s):
    """Metrics dict and detail dict of a traced run."""
    overhead_ms = 1e3 * (statistics.median(p.wall_s for p in passes)
                         - statistics.median(untraced_walls))
    values = layer_values(passes, setup_imports, overhead_ms)
    absent_keys = passes[0].absent
    metrics, absent = {}, {}
    for name, (unit, sources) in METRICS.items():
        missing = [absent_keys[key] for key in sources if key in absent_keys]
        if missing:
            absent[name] = missing[0]
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    seen = {name for p in passes for (_, name) in p.calls}
    idle = sorted(name for name, (_, sources) in METRICS.items()
                  if sources and name not in absent
                  and not any(key in seen for key in sources))
    detail = {
        "traced_passes": len(passes),
        "untraced_passes": len(untraced_walls),
        "absent": absent,
        "not_exercised": idle,
        "per_op": per_op_breakdown(passes, untraced_op_s),
        "note": SWEEP_NOTE,
    }
    return metrics, detail
