"""Command-line interface.

Subcommands analyze, solve-linear, solve-limit, sweep and run execute the
first 1, 2, 3, 4 and 4 entries of ``STAGES`` on one scenario; sweep falls
back to DEFAULT_H_LIST when the config has no h_list, where run skips the
sweep.  scenarios lists the built-ins.  ``STAGES`` lists each stage's
name, its key in report.json and its function, which takes the ``_Run``
state.  A stage ends ok by returning its report block and console line,
and in any other way (refused, skipped, aborted) by raising ``_Stop``
with its status and, where it has them, its block and line; the one loop
in ``cmd_stages`` records both outcomes alike, writes report.json and
returns the exit code.  A stage whose precondition fails for a
reason the theory predicts (non-equilibrated loads, incompatible loads,
non-strict sweep) is refused, not failed: the run reports the
explanation and exits with code 2.  A sweep whose minimizer stops short
of convergence is aborted: the partial sweep and the reason go to
sweep.csv and report.json, and the run exits with code 1.  Genuine
errors (bad config, broken mesh) exit with code 1 without a report.
The loads are assembled and classified once, at the scenario's ``tol``
(``--tol``), and every stage reads that classification from the
assembly.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .algebra import Density
from .fem import NotEquilibratedError, solve_linear
from .limit import IncompatibleLoadsError, minimize_limit, shifted_minimizer
from .loads import WEAK, assemble_loads
from .nonlinear import SweepAbortedError, SweepRefusedError, h_sweep
from .report import (checked, classification_dict, provenance, report_json,
                     skew_dict, solution_dump, sweep_csv, sweep_rows)
from .scenarios import (DEFAULT_H_LIST, ConfigError, builtin_scenarios,
                        load_scenario)

OK = "ok"
REFUSED = "refused"
SKIPPED = "skipped"
ABORTED = "aborted"


class _Stop(Exception):
    """Ends a stage with a status other than ok, and its report block and console line."""

    def __init__(self, status, block=None, line=None):
        super().__init__(status)
        self.status, self.block, self.line = status, block, line


class _Run:
    """Shared state while executing the stages of one scenario."""

    def __init__(self, scenario, out_dir, h_list):
        self.scenario = scenario
        self.h_list = h_list
        self.out = Path(out_dir)
        self.density = Density(scenario.mu, scenario.lam)
        mesh = scenario.build_mesh()
        for tag in sorted(set(mesh.edge_tags) - set(scenario.tractions)):
            raise ConfigError("no traction rule for this boundary tag", f"loads.{tag}")
        self.assembly = assemble_loads(mesh, scenario.load_spec(), scenario.tol)
        self.out.mkdir(parents=True, exist_ok=True)
        self.stages = {}
        self.report = {
            "scenario": {"name": scenario.name, "config": scenario.effective_config()},
            "provenance": provenance(scenario),
            "stages": self.stages,
        }
        self.linear = None
        self.limit = None

    def write(self, name, text):
        (self.out / name).write_text(text, encoding="utf-8")


def _analyze(run):
    cls = run.assembly.classification
    block = classification_dict(cls)
    run.write("classification.json", report_json(block))
    return block, f"classification: {cls.compat_class} (equilibrated: {cls.equilibrated})"


def _solve_linear(run):
    sc = run.scenario
    try:
        lin = run.linear = solve_linear(run.density, run.assembly, tol=sc.cg_tol)
    except NotEquilibratedError as exc:
        raise _Stop(REFUSED, {
            "refused": str(exc),
            "explanation": "the load work does not vanish on rigid displacements, "
                           "so the classical energy has no minimizer",
        }, f"solve-linear refused: {exc}")
    run.write("solution_linear.txt", solution_dump(lin.field))
    return {
        "min_E": checked(lin.energy, sc.cg_tol),
        "cg_iterations": lin.iterations,
        "preconditioner": "sa-amg",
        "cg_residual": checked(lin.residual, sc.cg_tol),
    }, f"min E = {lin.energy!r} ({lin.iterations} cg iterations)"


def _solve_limit(run):
    sc = run.scenario
    if run.linear is None:
        raise _Stop(SKIPPED)
    try:
        lim = run.limit = minimize_limit(run.density, run.assembly, run.linear)
    except IncompatibleLoadsError as exc:
        raise _Stop(REFUSED, {
            "refused": str(exc),
            "inf_F": "-inf",
            "witness": skew_dict(exc.witness),
            "witness_work": exc.witness_work,
            "explanation": "a skew direction with positive load work reverses the "
                           "compatibility inequality; the limit energy is unbounded "
                           "from below",
        }, f"solve-limit refused: {exc}")
    coincidence = abs(lim.F_value - lim.E_value)
    block = {
        "min_F": checked(lim.F_value, sc.cg_tol),
        "min_E": checked(lim.E_value, sc.cg_tol),
        "W0_norm": checked(float(np.linalg.norm(lim.W_star)), 1e-6),
        "coincidence_abs_diff": checked(coincidence, 1e-9 * (1 + abs(lim.E_value))),
    }
    if run.assembly.classification.compat_class == WEAK and sc.shift_ts:
        checks = []
        for t in sc.shift_ts:
            _, rec = shifted_minimizer(run.density, run.assembly, lim, t)
            checks.append({
                "t": rec.t,
                "F_delta": checked(rec.F_delta, 1e-8 * (1 + abs(lim.F_value))),
                "E_delta_positive": rec.E_delta > 0.0,
                "E_delta": rec.E_delta,
            })
        block["shift_checks"] = checks
    return block, f"min F = {lim.F_value!r}, |min F - min E| = {coincidence!r}"


def _sweep(run):
    if not run.h_list:
        raise _Stop(SKIPPED, {"skipped": "no h_list configured"})
    if run.limit is None:
        raise _Stop(REFUSED, {"refused": "sweep requires a solvable limit problem"},
                    "sweep refused: limit stage did not complete")
    try:
        result = h_sweep(run.density, run.assembly, run.limit, run.h_list,
                         grad_tol=run.scenario.grad_tol)
    except SweepRefusedError as exc:
        raise _Stop(REFUSED, {"refused": str(exc)}, f"sweep refused: {exc}")
    except SweepAbortedError as exc:
        run.write("sweep.csv", sweep_csv(exc.records))
        raise _Stop(ABORTED, {"aborted": str(exc), "sweep": sweep_rows(exc.records)}, str(exc))
    table = sweep_csv(result.records)
    run.write("sweep.csv", table)
    block = {"sweep": sweep_rows(result.records), "energy_floor": result.energy_floor}
    return block, table.rstrip("\n")


# (stage, report key, function) in run order; a stage returns (block, line) or raises _Stop
STAGES = (("analyze", "classification", _analyze), ("solve_linear", "linear", _solve_linear),
          ("solve_limit", "limit", _solve_limit), ("sweep", "nonlinear", _sweep))

# subcommand -> how many of STAGES it runs
STAGE_COUNTS = {"analyze": 1, "solve-linear": 2, "solve-limit": 3, "sweep": 4, "run": 4}


def cmd_stages(args):
    scenario = load_scenario(args.config, mesh_n=args.mesh_n, tol=args.tol)
    h_list = scenario.h_list or (DEFAULT_H_LIST if args.command == "sweep" else ())
    run = _Run(scenario, args.out, h_list)
    for name, key, stage in STAGES[:STAGE_COUNTS[args.command]]:
        status = OK
        try:
            block, line = stage(run)
        except _Stop as stop:
            status, block, line = stop.status, stop.block, stop.line
        run.stages[name] = status
        if block is not None:
            run.report[key] = block
        if line is not None:
            print(line)
    run.write("report.json", report_json(run.report))
    statuses = run.stages.values()
    return 1 if ABORTED in statuses else 2 if REFUSED in statuses else 0


def cmd_scenarios(args):
    for name, sc in sorted(builtin_scenarios().items()):
        mesh = f"rect {sc.nx}x{sc.ny}"
        print(f"{name:12s} {mesh:12s} mu={sc.mu} lambda={sc.lam} "
              f"h_list={list(sc.h_list)} shift_ts={list(sc.shift_ts)}")
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tractionlab",
        description="Pure-traction elasticity experiments: compatibility analysis, "
                    "linear and limit energy minimization, rescaled-energy sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGE_COUNTS:
        p = sub.add_parser(name)
        p.add_argument("config", help="built-in scenario name or config file path")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--mesh-n", type=int, default=None,
                       help="override rect mesh resolution (nx = ny = K)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the classification tolerance")
        p.set_defaults(fn=cmd_stages)
    sub.add_parser("scenarios").set_defaults(fn=cmd_scenarios)
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
