"""In-memory span tracer that wraps stirapkit's layer boundaries from outside.

The tracer never edits the package.  It replaces the names a calling module
looks up (for example ``stirapkit.scenarios.propagate``) with pass-through
timers, keeps every span in memory, and derives per-layer self times when
the traced pass ends.  ``uninstall`` puts every original object back.
"""

import contextlib
import os
import resource
import time
from collections import defaultdict

# Span tuple fields.
SID, PARENT, OP, NAME, T0, T1 = range(6)


def self_times(spans):
    """Self time of every span, in nanoseconds, keyed by span id.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children are clipped to the parent interval and
    overlapping children are merged, so the result never double-counts.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[T0], span[T1]))
    out = {}
    for span in spans:
        start, end = span[T0], span[T1]
        covered = 0
        cursor = start
        for c0, c1 in sorted(children.get(span[SID], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[span[SID]] = (end - start) - covered
    return out


def _cpu_children_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


class Tracer:
    """Collects spans and counters for one traced pass of a workload."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.op_counters = defaultdict(float)
        self._missing = {}
        self._installed = set()
        self._stack = []
        self._next_id = 0
        self._op = None
        self._patches = []
        # forked sweep workers inherit the wrappers; they must not trace
        self._pid = os.getpid()

    # -- span recording ----------------------------------------------------

    def begin(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, parent, name, time.perf_counter_ns()))

    def end(self):
        sid, parent, name, t0 = self._stack.pop()
        self.spans.append((sid, parent, self._op, name, t0,
                           time.perf_counter_ns()))

    def count(self, key, value, op=None):
        """Add to a counter, in total and for an operation (default: current)."""
        self.counters[key] += value
        self.op_counters[(op or self._op, key)] += value

    @contextlib.contextmanager
    def op(self, label):
        """Root span of one benchmark operation."""
        self._op = label
        self.begin("op")
        try:
            yield
        finally:
            self.end()
            self._op = None

    def timed(self, fn, name, after=None):
        """Pass-through wrapper recording one span per call of ``fn``.

        ``after(args, kwargs, result)`` runs once the span has ended, with
        ``result`` None when the call raised.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            result = None
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end()
                if after is not None:
                    after(args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def patch(self, module, attr, make_wrapper, feeds):
        """Replace ``module.attr`` by ``make_wrapper(original)``.

        ``feeds`` names the span or counter keys this wrapper produces.  When
        the attribute no longer exists they are recorded as absent, with the
        reason, instead of reading as zero.
        """
        original = getattr(module, attr, None)
        if original is None:
            for key in feeds:
                self._missing.setdefault(
                    key, f"{module.__name__} has no attribute {attr!r}")
            return
        self._installed.update(feeds)
        setattr(module, attr, make_wrapper(original))
        self._patches.append((module, attr, original))

    @property
    def absent(self):
        """Keys no installed wrapper feeds, with the reason for each."""
        return {key: reason for key, reason in self._missing.items()
                if key not in self._installed}

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install(self, sk):
        """Wrap every layer boundary the benchmark workloads cross.

        ``sk`` is the imported ``stirapkit`` package.  Calls made by the
        benchmark itself go through the package namespace, calls made by the
        CLI and the scenarios layer through those modules' own names.
        """
        cli, scen, prop, ns = sk.cli, sk.scenarios, sk.propagation, sk.nullspace

        def simple(module, attr, name, after=None):
            self.patch(module, attr, lambda fn: self.timed(fn, name, after),
                       [name])

        simple(cli, "main", "cli.main")
        for module in (cli, sk):
            simple(module, "load_scenario", "scenarios.load")
        simple(cli, "run_scenario", "scenarios.run")

        simple(scen, "write_trajectory_csv", "scenarios.write")

        def sweep_wrapper(fn):
            timed = self.timed(fn, "scenarios.sweep")

            def wrapper(*args, **kwargs):
                values = kwargs.get("values", args[2] if len(args) > 2 else ())
                cpu0 = _cpu_children_ns()
                t0 = time.perf_counter_ns()
                try:
                    return timed(*args, **kwargs)
                finally:
                    self.count("scenarios.sweep.wall_ns",
                               time.perf_counter_ns() - t0)
                    self.count("scenarios.sweep.worker_cpu_ns",
                               _cpu_children_ns() - cpu0)
                    self.count("scenarios.sweep.points", len(values))

            return wrapper

        self.patch(cli, "run_sweep", sweep_wrapper, ["scenarios.sweep"])

        def pool_wrapper(cls):
            def make(*args, **kwargs):
                workers = kwargs.get("max_workers", args[0] if args else None)
                self.count("scenarios.sweep.pools", 1)
                self.count("scenarios.sweep.workers",
                           workers or os.cpu_count())
                return cls(*args, **kwargs)

            return make

        self.patch(scen, "ProcessPoolExecutor", pool_wrapper,
                   ["scenarios.sweep.pool"])

        def feasibility(args, kwargs, result):
            if result is not None and not result.feasible:
                self.count("design.infeasible", 1)

        for module in (scen, sk):
            simple(module, "check_feasibility", "design.check_feasibility",
                   feasibility)
        simple(scen, "design_fields", "design.design_fields")
        for module in (scen, ns, sk):
            simple(module, "verify_design", "design.verify_design")

        simple(scen, "propagate", "propagation.propagate")
        self.patch(prop, "solve_ivp", self._solver_wrapper,
                   ["propagation.solver", "propagation.rhs"])

        simple(sk, "numeric_null_space", "nullspace.null_space")
        simple(sk, "analytic_lambda1", "nullspace.lambda1")

        def tracked(args, kwargs, result):
            if result is not None:
                self.count("nullspace.track.points", len(result))

        simple(sk, "track_null_frame", "nullspace.track", tracked)

        def coupled(args, kwargs, result):
            if result is not None:
                _, points, converged = result
                self.count("nullspace.coupling.grid_points", points)
                self.count("nullspace.coupling.converged", bool(converged))

        simple(sk, "converged_max_coupling", "nullspace.coupling", coupled)
        simple(sk, "hamiltonian", "model.hamiltonian")

    def _solver_wrapper(self, solve_ivp):
        """Times the integrator and the right-hand side it was handed."""
        tracer = self

        def wrapper(fun, t_span, y0, *args, **kwargs):
            if os.getpid() != tracer._pid:
                return solve_ivp(fun, t_span, y0, *args, **kwargs)

            def timed_fun(t, y):
                tracer.begin("propagation.rhs")
                try:
                    return fun(t, y)
                finally:
                    tracer.end()

            tracer.begin("propagation.solver")
            try:
                sol = solve_ivp(timed_fun, t_span, y0, *args, **kwargs)
            finally:
                tracer.end()
            dim = len(y0)
            self.count("propagation.rhs.calls", sol.nfev)
            # two dense complex d x d matvecs (8 flops per multiply-add),
            # two envelope scalings, one vector sum and the -1j factor
            self.count("propagation.rhs.flops", sol.nfev * (
                16 * dim * dim + 12 * dim))
            return sol

        wrapper.__wrapped__ = solve_ivp
        return wrapper


def totals(spans):
    """Span count and summed self time (ns) per (operation, span name).

    Within one operation the self times of all its spans add up to the
    duration of its root span.
    """
    own = self_times(spans)
    calls, self_ns = defaultdict(int), defaultdict(int)
    for span in spans:
        key = (span[OP], span[NAME])
        calls[key] += 1
        self_ns[key] += own[span[SID]]
    return calls, self_ns
