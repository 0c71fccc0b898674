"""Per-layer tracing of tractionlab from outside the package.

Wrappers are installed at the name each caller looks up (for example
``tractionlab.limit.solve_linear`` as well as ``tractionlab.cli.solve_linear``),
so the package itself is not modified.  Each wrapped call records a span
(name, start, end, parent) in memory; results are inspected for the
solver counters the package already returns.  Spans are written out only
when the benchmark ends.
"""

import contextlib
import importlib
import pathlib
import time
from collections import defaultdict

# span name -> lookup sites (module, attribute); a site missing from the
# program is skipped and reported, so the trace survives refactors
SITES = {
    "cli.main": [("tractionlab.cli", "main")],
    "mesh.build": [("tractionlab.scenarios", "rect_mesh"), ("tractionlab.scenarios", "read_mesh"),
                   ("tractionlab.nonlinear", "refine"), ("tractionlab.mesh", "rect_mesh")],
    "loads.assemble": [("tractionlab.cli", "assemble_loads"), ("tractionlab.nonlinear", "assemble_loads"),
                       ("tractionlab.loads", "assemble_loads")],
    "loads.classify": [("tractionlab.cli", "classify_compatibility"),
                       ("tractionlab.nonlinear", "classify_compatibility"),
                       ("tractionlab.limit", "classify_compatibility")],
    "fem.assemble": [("tractionlab.fem", "assemble_stiffness"), ("tractionlab.fem", "mass_matrix"),
                     ("tractionlab.fem", "rigid_basis")],
    "fem.solve_linear": [("tractionlab.cli", "solve_linear"), ("tractionlab.limit", "solve_linear"),
                         ("tractionlab.nonlinear", "solve_linear")],
    "limit.minimize": [("tractionlab.cli", "minimize_limit"), ("tractionlab.nonlinear", "minimize_limit")],
    "limit.report": [("tractionlab.limit", "limit_report")],
    "limit.shifted": [("tractionlab.cli", "shifted_minimizer")],
    "limit.inner3d": [("tractionlab.limit", "inner_skew_minimum_3d")],
    "nonlinear.h_sweep": [("tractionlab.cli", "h_sweep")],
    "nonlinear.minimize": [("tractionlab.nonlinear", "minimize_rescaled")],
    "nonlinear.energy": [("tractionlab.nonlinear", "eval_rescaled")],
    "nonlinear.gradient": [("tractionlab.nonlinear", "rescaled_gradient")],
    "report.json": [("tractionlab.cli", "report_json")],
    "report.csv": [("tractionlab.cli", "sweep_csv")],
    "report.dump": [("tractionlab.cli", "solution_dump")],
}

# counters that must repeat exactly for identical inputs
DETERMINISTIC = ("fem.cg_iterations", "nonlinear.lbfgs_iterations", "nonlinear.energy_evals",
                 "nonlinear.gradient_evals", "limit.alternating_iterations", "fem.assemble_calls")


def _count_result(tracer, rec, out):
    """Fold the counters a call returns into the tracer; may rename the span."""
    name = rec[0]
    c = tracer.counts
    if name == "fem.solve_linear":
        c["fem.cg_iterations"] += getattr(out, "iterations", 0)
    elif name == "limit.minimize":
        c["limit.alternating_iterations"] += getattr(out, "iterations", 0)
    elif name == "mesh.build":
        c["mesh.nodes"] += getattr(out, "n_nodes", 0)
    elif name == "nonlinear.minimize":
        if getattr(out, "status", None) == "diverged":
            rec[0] = "nonlinear.probe"      # divergence certificate, not a minimization
            return
        iters = getattr(out, "iterations", 0)
        c["nonlinear.lbfgs_iterations"] += iters
        c["nonlinear.barrier_hits"] += getattr(out, "barrier_hits", 0)
        c["nonlinear.iters_per_point_max"] = max(c["nonlinear.iters_per_point_max"], iters)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._installed = []
        self.missing = []

    def _enter(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(rec)
            _count_result(self, rec, out)
            return out
        return traced

    @contextlib.contextmanager
    def span(self, name):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def install(self):
        self.missing = []
        for name, sites in SITES.items():
            for modname, attr in sites:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                setattr(mod, attr, self.wrap(name, fn))
                self._installed.append((mod, attr, fn))
        write_text = pathlib.Path.write_text
        tracer = self

        def traced_write(path, data, *args, **kwargs):
            rec = tracer._enter("report.write")
            try:
                return write_text(path, data, *args, **kwargs)
            finally:
                tracer._exit(rec)
                tracer.counts["report.bytes"] += len(data.encode("utf-8"))
        pathlib.Path.write_text = traced_write
        self._installed.append((pathlib.Path, "write_text", write_text))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(t1 - t0) - c for (_, t0, t1, _), c in zip(spans, child)]


PER_LAYER = {
    # name: unit
    "nonlinear.minimize_s": "s", "nonlinear.lbfgs_iterations": "count",
    "nonlinear.iters_per_point_max": "count", "nonlinear.energy_evals": "count",
    "nonlinear.energy_s": "s", "nonlinear.gradient_evals": "count", "nonlinear.gradient_s": "s",
    "nonlinear.self_s": "s", "nonlinear.barrier_hits": "count",
    "nonlinear.linesearch_accept_ratio": "ratio", "nonlinear.probe_s": "s",
    "fem.solve_linear_s": "s", "fem.solve_linear_calls": "count", "fem.cg_iterations": "count",
    "fem.assemble_s": "s", "fem.assemble_calls": "count",
    "limit.minimize_s": "s", "limit.minimize_calls": "count",
    "limit.alternating_iterations": "count", "limit.report_s": "s",
    "limit.inner3d_s": "s", "limit.inner3d_calls": "count",
    "mesh.build_s": "s", "mesh.nodes": "count",
    "loads.assemble_s": "s", "loads.classify_s": "s",
    "report.write_s": "s", "report.bytes": "B",
    "cli.self_s": "s",
}


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    dur = defaultdict(float)
    calls = defaultdict(int)
    self_by = defaultdict(float)
    energy_in = defaultdict(int)        # minimize span index -> child energy evals
    grad_in = defaultdict(int)
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent < 0 or spans[parent][0] != name:     # time nested same-name calls once
            dur[name] += t1 - t0
        calls[name] += 1
        self_by[name] += selfs[i]
        if parent >= 0 and spans[parent][0] == "nonlinear.minimize":
            if name == "nonlinear.energy":
                energy_in[parent] += 1
            elif name == "nonlinear.gradient":
                grad_in[parent] += 1
    trials = sum(energy_in[i] - grad_in[i] for i in energy_in)
    accepted = counts.get("nonlinear.lbfgs_iterations", 0)
    return {
        "nonlinear.minimize_s": dur["nonlinear.minimize"],
        "nonlinear.lbfgs_iterations": accepted,
        "nonlinear.iters_per_point_max": counts.get("nonlinear.iters_per_point_max", 0),
        "nonlinear.energy_evals": calls["nonlinear.energy"],
        "nonlinear.energy_s": dur["nonlinear.energy"],
        "nonlinear.gradient_evals": calls["nonlinear.gradient"],
        "nonlinear.gradient_s": dur["nonlinear.gradient"],
        "nonlinear.self_s": sum(self_by[n] for n in
                                ("nonlinear.h_sweep", "nonlinear.minimize", "nonlinear.probe")),
        "nonlinear.barrier_hits": counts.get("nonlinear.barrier_hits", 0),
        "nonlinear.linesearch_accept_ratio": accepted / trials if trials > 0 else 0.0,
        "nonlinear.probe_s": dur["nonlinear.probe"],
        "fem.solve_linear_s": dur["fem.solve_linear"],
        "fem.solve_linear_calls": calls["fem.solve_linear"],
        "fem.cg_iterations": counts.get("fem.cg_iterations", 0),
        "fem.assemble_s": dur["fem.assemble"],
        "fem.assemble_calls": calls["fem.assemble"],
        "limit.minimize_s": dur["limit.minimize"],
        "limit.minimize_calls": calls["limit.minimize"],
        "limit.alternating_iterations": counts.get("limit.alternating_iterations", 0),
        "limit.report_s": dur["limit.report"],
        "limit.inner3d_s": dur["limit.inner3d"],
        "limit.inner3d_calls": calls["limit.inner3d"],
        "mesh.build_s": dur["mesh.build"],
        "mesh.nodes": counts.get("mesh.nodes", 0),
        "loads.assemble_s": dur["loads.assemble"],
        "loads.classify_s": dur["loads.classify"],
        "report.write_s": sum(dur[n] for n in
                              ("report.json", "report.csv", "report.dump", "report.write")),
        "report.bytes": counts.get("report.bytes", 0),
        "cli.self_s": self_by["cli.main"],
    }


def layer_shares(spans):
    """Share of op time spent in each layer's own code (self time by layer prefix)."""
    selfs = self_times(spans)
    total = sum(t1 - t0 for name, t0, t1, _ in spans if name == "op")
    by_layer = defaultdict(float)
    for (name, *_), s in zip(spans, selfs):
        by_layer[name.split(".")[0]] += s
    return {k: v / total for k, v in sorted(by_layer.items())} if total > 0 else {}
