"""Report assembly and deterministic serialization (JSON / CSV / mesh dumps).

Identical configs must produce byte-identical outputs: floats are
serialized with shortest round-trip repr and reports carry no wall-clock
data, only the config hash and package version.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np

from . import __version__
from .mesh import write_mesh
from .nonlinear import SweepRecord


def _plain(obj):
    """Recursively convert to JSON-safe types; +-inf become strings."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "+inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def checked(value, tol):
    """A numeric paired with the tolerance it was tested against."""
    return {"value": _plain(value), "tol": _plain(tol)}


def report_json(report):
    return json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"


def classification_dict(classification):
    c = classification
    return {
        "class": c.compat_class,
        "equilibrated": bool(c.equilibrated),
        "force_residual": checked(c.force_residual, c.tol),
        "torque_residual": checked(c.torque_residual, c.tol),
        "moment_matrix": c.moment_matrix,
        "moment_trace": float(np.trace(c.moment_matrix)),
        "sup_gap": c.sup_gap,
        "witness": skew_dict(c.witness),
        "witness_work": c.witness_work,
        "kernel": [skew_dict(k) for k in c.kernel],
        "tol": c.tol,
    }


def skew_dict(W):
    """Skew W as {"dim", "coeffs"}: W[0, 1] in 2D, the axis (W[2, 1], W[0, 2], W[1, 0]) in 3D."""
    if W is None:
        return None
    coeffs = [W[0, 1]] if len(W) == 2 else [W[2, 1], W[0, 2], W[1, 0]]
    return {"dim": len(W), "coeffs": [float(c) for c in coeffs]}


def sweep_csv(records):
    """CSV table of SweepRecords: one column per field, floats in shortest round-trip repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(f.name for f in dataclasses.fields(SweepRecord))
    writer.writerows(dataclasses.astuple(r) for r in records)
    return out.getvalue()


def sweep_rows(records):
    """report.json rows of SweepRecords; W_proxy carries the tolerance it is read at."""
    return [dict(dataclasses.asdict(r), W_proxy=checked(r.W_proxy, 1e-4)) for r in records]


def provenance(scenario):
    return {"config_sha256": scenario.config_hash(), "version": __version__}


def solution_dump(mesh, field):
    """Mesh text format with appended nodal solution lines."""
    return write_mesh(mesh, solution=field.values)
