"""Pure-traction elasticity experiments.

Compatibility classification of equilibrated load systems, the classical
linear-elastic energy, the limit energy with its inner skew-matrix
minimization, and the rescaled nonlinear energies with h-sweep
experiments on P1 triangulations.
"""

__version__ = "0.1.0"

from .algebra import Density, rodrigues, skew2, skew3
from .fem import (DisplacementField, NoConvergenceError, NotEquilibratedError,
                  assemble_stiffness, elastic_energy, element_strains,
                  linear_field, operators, rigid_basis, solve_linear)
from .limit import (IncompatibleLoadsError, LimitReport, inner_skew_minimum,
                    inner_skew_minimum_3d, limit_report, minimize_limit,
                    shifted_minimizer)
from .loads import (BodyForce, Classification, LoadSpec, TractionRule,
                    assemble_loads, check_equilibrated, classify_compatibility,
                    classify_moment_matrix, constant_traction, load_work,
                    pressure, tangential)
from .mesh import Mesh, read_mesh, rect_mesh, refine, write_mesh
from .nonlinear import (NonlinearResult, SweepRecord, SweepRefusedError,
                        eval_rescaled, h_sweep, minimize_rescaled,
                        rescaled_gradient, rotation_path_field, strain_moments)
from .scenarios import Scenario, builtin_scenarios, load_scenario, parse_scenario
