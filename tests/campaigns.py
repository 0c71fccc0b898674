"""Seeded solver campaigns: the draws that decide whether a solver safeguard stays.

pytest does not collect this module; tier-1 tests run single cases taken
from it.  From the repository root,

    PYTHONPATH=src python tests/campaigns.py [lbfgs] [kplus] [--perturb SEED]

prints one line per run, its status and iteration counts, and the
totals of each campaign; ``--perturb`` starts every L-BFGS run from
``one_ulp`` of its linear minimizer with that seed.  A safeguard may go
when the tree without it converges at least as many runs, with L-BFGS
and CG iteration totals within 2% of the tree with it.  Round-off picks
the status of some runs, so a run whose status differs is re-run from
one-ulp starts on both trees, and it moves the CG total of the L-BFGS
campaign by up to 5% between such starts, so totals are compared over
several of them.

The L-BFGS campaign: ``lbfgs_draws`` takes 120 draws of
``np.random.default_rng(7)``, each a ``rect_mesh`` or ``jittered_mesh``
from 8x8 to 16x16, lambda in {0, 1, 5} with mu = 1, and a strict load:
a pressure, an SPD body force or two side pressures, magnitudes 1 to 30.
Each draw runs ``minimize_rescaled`` from its linear minimizer at every
h of ``LBFGS_HS``: 360 runs.

The K^+ campaign: ``kplus_cases`` solves the body force g = x and a
pressure on ``rect_mesh`` and on ``jittered_mesh`` (seeds 3, 5, 61) at
16x16, 32x32 and 64x64, lambda in {1, 100, 1e4}, to tol 1e-10 and 1e-8,
and the near starts: white noise (seeds 0 to 4) measured against a
reference 1e6 times its size, to tol 1e-8 on ``rect_mesh`` 16x16 to
64x64, whose affine start lies within ``fem._JACOBI_START`` tol.
"""

import sys
from dataclasses import dataclass

import numpy as np

from conftest import (body_spec, jittered_mesh, pressure_spec, spd_body_spec, sweep_inputs,
                      two_side_pressures)
from tractionlab.algebra import Density
from tractionlab.fem import NoConvergenceError, operators
from tractionlab.loads import assemble_loads
from tractionlab.mesh import rect_mesh
from tractionlab.nonlinear import InadmissibleStateError, minimize_rescaled

LBFGS_HS = (1.0, 0.8, 0.4)
INADMISSIBLE = "inadmissible"
FLOOR = "floor"
NO_CONVERGENCE = "no_convergence"

_LOADS = {"pressure": pressure_spec, "body": spd_body_spec, "two_side": two_side_pressures}


def _mesh(n, seed):
    return rect_mesh(n, n) if seed is None else jittered_mesh(n, n, np.random.default_rng(seed))


def one_ulp(values, seed):
    """values times 1 + u eps, u uniform in [-1, 1]: about half the entries move one ulp."""
    rng = np.random.default_rng(seed)
    return values * (1.0 + np.finfo(float).eps * rng.uniform(-1.0, 1.0, values.shape))


@dataclass(frozen=True)
class LbfgsDraw:
    """One draw: an n x n mesh (``seed`` None for ``rect_mesh``), lambda and a load."""

    n: int
    seed: int | None
    lam: float
    load: str
    params: tuple

    def inputs(self):
        """(mesh, density, assembly, limit) as ``h_sweep`` takes them."""
        mesh = _mesh(self.n, self.seed)
        density = Density(1.0, self.lam)
        return (mesh, density, *sweep_inputs(mesh, density, _LOADS[self.load](*self.params)))


def lbfgs_draws(count=120, seed=7):
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        n = int(rng.integers(8, 17))
        jittered = bool(rng.integers(2))
        mesh_seed = int(rng.integers(2**31))
        lam = (0.0, 1.0, 5.0)[rng.integers(3)]
        load = ("pressure", "body", "two_side")[rng.integers(3)]
        if load == "pressure":
            params = (float(rng.uniform(1.0, 30.0)),)
        elif load == "body":
            params = (float(rng.uniform(0.0, np.pi)), *map(float, rng.uniform(1.0, 30.0, 2)))
        else:
            params = tuple(map(float, rng.uniform(1.0, 30.0, 2)))
        draws.append(LbfgsDraw(n, mesh_seed if jittered else None, lam, load, params))
    return draws


def lbfgs_run(draw, h, perturb=None):
    """``minimize_rescaled`` of ``draw`` at h from its linear minimizer, or from
    ``one_ulp`` of it with seed ``perturb``: the result, or INADMISSIBLE."""
    mesh, density, asm, lim = draw.inputs()
    init = lim.field
    if perturb is not None:
        init = type(init)(mesh, one_ulp(init.values, perturb))
    try:
        return minimize_rescaled(mesh, density, asm, h, init=init)
    except InadmissibleStateError:
        return INADMISSIBLE


@dataclass(frozen=True)
class KplusCase:
    """``kplus`` of ``load`` ("body", "pressure" or the near-start noise seed) to tol."""

    n: int
    seed: int | None
    lam: float
    load: object
    tol: float

    def solve(self):
        """(status, iterations, true relative residual); status is converged, FLOOR
        (the true residual is above tol) or NO_CONVERGENCE."""
        mesh = _mesh(self.n, self.seed)
        ops = operators(mesh, Density(1.0, self.lam))
        ref = None
        if self.load == "body":
            b = assemble_loads(mesh, body_spec((1.0, 0.0, 0.0, 1.0))).load_vector.reshape(-1)
        elif self.load == "pressure":
            b = assemble_loads(mesh, pressure_spec(16.0)).load_vector.reshape(-1)
        else:
            b = np.random.default_rng(self.load).standard_normal(2 * mesh.n_nodes)
            b -= ops.rigid_part(b)
            ref = 1e6 * b
        try:
            _, it, rel = ops.kplus(b, self.tol, ref)
        except NoConvergenceError as exc:
            return NO_CONVERGENCE, exc.iterations, exc.residual
        return ("converged" if rel <= self.tol else FLOOR), it, rel


def kplus_cases():
    cases = [KplusCase(n, seed, lam, load, tol)
             for n in (16, 32, 64) for seed in (None, 3, 5, 61) for lam in (1.0, 100.0, 1e4)
             for load in ("body", "pressure") for tol in (1e-10, 1e-8)]
    cases += [KplusCase(n, None, 1.0, noise, 1e-8) for n in (16, 32, 64) for noise in range(5)]
    return cases


def _status(res):
    return res if isinstance(res, str) else res.status


def _print_totals(statuses, counts):
    tally = {s: statuses.count(s) for s in sorted(set(statuses))}
    print("totals:", ", ".join(f"{s} {k}" for s, k in tally.items()),
          "|", ", ".join(f"{name} {total}" for name, total in counts.items()))


def main(argv):
    perturb = None
    if "--perturb" in argv:
        at = argv.index("--perturb")
        perturb = int(argv[at + 1])
        argv = argv[:at] + argv[at + 2:]
    which = argv or ["lbfgs", "kplus"]
    if "lbfgs" in which:
        statuses, iters, cg = [], 0, 0
        for k, draw in enumerate(lbfgs_draws()):
            for h in LBFGS_HS:
                res = lbfgs_run(draw, h, perturb)
                statuses.append(_status(res))
                line = f"lbfgs {k:3d} h={h:<3} {draw} {_status(res)}"
                if not isinstance(res, str):
                    iters += res.iterations
                    cg += res.cg_iterations
                    line += f" iters={res.iterations} cg={res.cg_iterations} Fh={res.value!r}"
                print(line, flush=True)
        _print_totals(statuses, {"L-BFGS iterations": iters, "CG iterations": cg})
    if "kplus" in which:
        statuses, iters = [], 0
        for case in kplus_cases():
            status, it, rel = case.solve()
            statuses.append(status)
            iters += it
            print(f"kplus {case} {status} iters={it} residual={rel:.3e}", flush=True)
        _print_totals(statuses, {"CG iterations": iters})


if __name__ == "__main__":
    main(sys.argv[1:])
