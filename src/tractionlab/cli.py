"""Command-line interface.

Subcommands: analyze, solve-linear, solve-limit, sweep, run (all stages),
scenarios.  A stage whose precondition fails for a reason the theory
predicts (non-equilibrated loads, incompatible loads, non-strict sweep)
is refused, not failed: the run reports the explanation and exits with
code 2.  A sweep whose minimizer stops short of convergence is aborted:
the partial sweep and the reason go to sweep.csv and report.json, and
the run exits with code 1.  Genuine errors (bad config, broken mesh)
exit with code 1 without a report.
"""

import argparse
import sys
from pathlib import Path

from .algebra import Density
from .fem import NotEquilibratedError, solve_linear
from .limit import IncompatibleLoadsError, minimize_limit, shifted_minimizer
from .loads import WEAK, assemble_loads, classify_compatibility
from .nonlinear import SweepAbortedError, SweepRefusedError, h_sweep
from .report import (checked, classification_dict, provenance, report_json,
                     solution_dump, sweep_csv)
from .scenarios import (DEFAULT_H_LIST, ConfigError, builtin_scenarios,
                        load_scenario)

OK = "ok"
REFUSED = "refused"
SKIPPED = "skipped"
ABORTED = "aborted"


class _Run:
    """Shared state while executing the stages of one scenario."""

    def __init__(self, scenario, out_dir):
        self.scenario = scenario
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.density = Density(scenario.mu, scenario.lam)
        self.mesh = scenario.build_mesh()
        self.assembly = assemble_loads(self.mesh, scenario.load_spec())
        self.classification = classify_compatibility(self.assembly, scenario.tol)
        self.stages = {}
        self.report = {
            "scenario": {"name": scenario.name, "config": scenario.effective_config()},
            "provenance": provenance(scenario),
            "stages": self.stages,
        }
        self.linear = None
        self.linear_dump = None
        self.limit = None

    def write(self, name, text):
        (self.out / name).write_text(text, encoding="utf-8")

    def analyze(self):
        self.report["classification"] = classification_dict(self.classification)
        self.write("classification.json", report_json(self.report["classification"]))
        self.stages["analyze"] = OK
        print(f"classification: {self.classification.compat_class}"
              f" (equilibrated: {self.classification.equilibrated})")

    def solve_linear_stage(self):
        sc = self.scenario
        try:
            self.linear = solve_linear(self.mesh, self.density, self.assembly,
                                       tol=sc.cg_tol, equilibrium_tol=sc.tol)
        except NotEquilibratedError as exc:
            self.stages["solve_linear"] = REFUSED
            self.report["linear"] = {
                "refused": str(exc),
                "explanation": "the load work does not vanish on rigid displacements, "
                               "so the classical energy has no minimizer",
            }
            print(f"solve-linear refused: {exc}")
            return
        self.report["linear"] = {
            "min_E": checked(self.linear.energy, sc.cg_tol),
            "cg_iterations": self.linear.iterations,
            "preconditioner": "sa-amg",
            "cg_residual": checked(self.linear.residual, sc.cg_tol),
        }
        self.linear_dump = solution_dump(self.mesh, self.linear.field)
        self.write("solution_linear.txt", self.linear_dump)
        self.stages["solve_linear"] = OK
        print(f"min E = {self.linear.energy!r} ({self.linear.iterations} cg iterations)")

    def solve_limit_stage(self):
        sc = self.scenario
        if self.stages.get("solve_linear") != OK:
            self.stages["solve_limit"] = SKIPPED
            return
        try:
            self.limit = minimize_limit(self.mesh, self.density, self.assembly,
                                        classification=self.classification,
                                        linear=self.linear)
        except IncompatibleLoadsError as exc:
            self.stages["solve_limit"] = REFUSED
            self.report["limit"] = {
                "refused": str(exc),
                "inf_F": "-inf",
                "witness": classification_dict(self.classification)["witness"],
                "witness_work": self.classification.witness_work,
                "explanation": "a skew direction with positive load work reverses the "
                               "compatibility inequality; the limit energy is unbounded "
                               "from below",
            }
            print(f"solve-limit refused: {exc}")
            return
        lim = self.limit
        coincidence = abs(lim.F_value - lim.E_value)
        block = {
            "min_F": checked(lim.F_value, sc.cg_tol),
            "min_E": checked(lim.E_value, sc.cg_tol),
            "W0_norm": checked(float(lim.W0.norm_sq()) ** 0.5, 1e-6),
            "coincidence_abs_diff": checked(coincidence, 1e-9 * (1 + abs(lim.E_value))),
        }
        if self.classification.compat_class == WEAK and sc.shift_ts:
            checks = []
            for t in sc.shift_ts:
                _, rec = shifted_minimizer(
                    self.mesh, self.density, self.assembly, lim.field,
                    self.classification.kernel[0], t, lim.F_value, lim.E_value,
                    tol=sc.tol,
                )
                checks.append({
                    "t": rec.t,
                    "F_delta": checked(rec.F_delta, 1e-8 * (1 + abs(lim.F_value))),
                    "E_delta_positive": rec.E_delta > 0.0,
                    "E_delta": rec.E_delta,
                })
            block["shift_checks"] = checks
        self.report["limit"] = block
        # minimize_limit(linear=...) returns the linear field itself
        self.write("solution_limit.txt", self.linear_dump)
        self.stages["solve_limit"] = OK
        print(f"min F = {lim.F_value!r}, |min F - min E| = {coincidence!r}")

    def sweep_stage(self, force=False):
        sc = self.scenario
        h_list = sc.h_list or (DEFAULT_H_LIST if force else ())
        if not h_list:
            self.stages["sweep"] = SKIPPED
            self.report["nonlinear"] = {"skipped": "no h_list configured"}
            return
        if self.stages.get("solve_limit") != OK:
            self.stages["sweep"] = REFUSED
            self.report["nonlinear"] = {
                "refused": "sweep requires a solvable limit problem",
            }
            print("sweep refused: limit stage did not complete")
            return
        try:
            # on the scenario's own mesh the sweep reuses the loads, their
            # classification at the scenario's tol and the limit stage's
            # minimizer, the linear solution at the scenario's cg_tol
            own_mesh = not sc.refinements
            result = h_sweep(self.mesh, self.density, sc.load_spec(), h_list,
                             refinements=sc.refinements, grad_tol=sc.grad_tol,
                             divergence_threshold=sc.divergence_threshold,
                             limit=self.limit if own_mesh else None,
                             assembly=self.assembly if own_mesh else None,
                             classification=self.classification)
        except (IncompatibleLoadsError, SweepRefusedError) as exc:
            self.stages["sweep"] = REFUSED
            self.report["nonlinear"] = {"refused": str(exc)}
            print(f"sweep refused: {exc}")
            return
        except SweepAbortedError as exc:
            self.stages["sweep"] = ABORTED
            self.report["nonlinear"] = {"aborted": str(exc),
                                        "sweep": self._sweep_rows(exc.records)}
            self.write("sweep.csv", sweep_csv(exc.records))
            print(exc)
            return
        table = sweep_csv(result.records)
        self.write("sweep.csv", table)
        self.report["nonlinear"] = {
            "sweep": self._sweep_rows(result.records),
            "limit_value": result.limit_value,
            "limit_W0_norm": checked(result.limit_W0_norm, 1e-6),
            "energy_floor": result.energy_floor,
        }
        self.stages["sweep"] = OK
        print(table, end="")

    @staticmethod
    def _sweep_rows(records):
        return [
            {"h": r.h, "Fh": r.Fh, "W_proxy": checked(r.W_proxy, 1e-4),
             "moment_dist": r.moment_dist, "iters": r.iters, "status": r.status}
            for r in records
        ]

    def exit_code(self):
        if ABORTED in self.stages.values():
            return 1
        return 2 if REFUSED in self.stages.values() else 0

    def finish(self):
        self.write("report.json", report_json(self.report))
        return self.exit_code()


def _make_run(args):
    scenario = load_scenario(args.config, mesh_n=args.mesh_n, tol=args.tol)
    return _Run(scenario, args.out)


def cmd_analyze(args):
    run = _make_run(args)
    run.analyze()
    return run.finish()


def cmd_solve_linear(args):
    run = _make_run(args)
    run.analyze()
    run.solve_linear_stage()
    return run.finish()


def cmd_solve_limit(args):
    run = _make_run(args)
    run.analyze()
    run.solve_linear_stage()
    run.solve_limit_stage()
    return run.finish()


def cmd_sweep(args):
    run = _make_run(args)
    run.analyze()
    run.solve_linear_stage()
    run.solve_limit_stage()
    run.sweep_stage(force=True)
    return run.finish()


def cmd_run(args):
    run = _make_run(args)
    run.analyze()
    run.solve_linear_stage()
    run.solve_limit_stage()
    run.sweep_stage()
    return run.finish()


def cmd_scenarios(args):
    for name, sc in sorted(builtin_scenarios().items()):
        mesh = f"rect {sc.nx}x{sc.ny}"
        print(f"{name:12s} {mesh:12s} mu={sc.mu} lambda={sc.lam} "
              f"h_list={list(sc.h_list)} shift_ts={list(sc.shift_ts)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tractionlab",
        description="Pure-traction elasticity experiments: compatibility analysis, "
                    "linear and limit energy minimization, rescaled-energy sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config", help="built-in scenario name or config file path")
            p.add_argument("--out", default="out", help="output directory (default: out)")
            p.add_argument("--mesh-n", type=int, default=None,
                           help="override rect mesh resolution (nx = ny = K)")
            p.add_argument("--tol", type=float, default=None,
                           help="override the classification tolerance")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze)
    add("solve-linear", cmd_solve_linear)
    add("solve-limit", cmd_solve_limit)
    add("sweep", cmd_sweep)
    add("run", cmd_run)
    add("scenarios", cmd_scenarios, needs_config=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # mesh/load errors and friends
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
