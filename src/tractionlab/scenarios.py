"""Scenario configuration: parsing, defaults, and the built-in library.

Configs are INI-style text with sections [scenario], [mesh], [density],
[loads.<tag>], [loads.body] and [experiment].  Every effective parameter
(defaults included) is echoed back by ``effective_config`` so a run is
reproducible from its own report.

Built-in scenarios, one per landmark load case:

    tension      uniform outward pressure p = 16 on the unit square
    compression  uniform inward pressure p = -1 (incompatible loads)
    infmany      equilibrated tangential-like pattern with Tr S = 0
                 (weakly compatible, extra limit minimizers)
    bodyforce    zero tractions with the linear body force g = x
"""

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, replace

from .loads import BodyForce, LoadSpec, TractionRule
from .mesh import read_mesh, rect_mesh, refine


class ConfigError(ValueError):
    """Scenario config problem, annotated with section and key."""

    def __init__(self, message, section=None, key=None):
        loc = ""
        if section is not None:
            loc = f"[{section}]" + (f" {key}" if key else "")
            loc = f"{loc}: "
        super().__init__(f"{loc}{message}")
        self.section = section
        self.key = key


DEFAULT_H_LIST = (0.2, 0.1, 0.05, 0.025)

# the keys each config section accepts; every [loads.<tag>] but body is a traction
_KEYS = {
    "scenario": {"name"},
    "mesh": {"kind", "path", "nx", "ny", "x_min", "x_max", "y_min", "y_max"},
    "density": {"mu", "lambda"},
    "loads.body": {"kind", "value", "matrix"},
    "experiment": {"h_list", "refinements", "tol", "cg_tol", "grad_tol", "shift_ts"},
}
_TRACTION_KEYS = {"constant", "pressure", "tangential"}


@dataclass(frozen=True)
class Scenario:
    """Fully specified experiment description (defaults already applied)."""

    name: str = "unnamed"
    mesh_kind: str = "rect"
    nx: int = 16
    ny: int = 16
    x_range: tuple = (-0.5, 0.5)
    y_range: tuple = (-0.5, 0.5)
    mesh_path: str = ""
    mu: float = 1.0
    lam: float = 1.0
    tractions: dict = field(default_factory=dict)
    body: BodyForce = BodyForce()
    h_list: tuple = ()
    refinements: int = 0
    tol: float = 1e-9
    cg_tol: float = 1e-10
    grad_tol: float = 1e-8
    shift_ts: tuple = ()

    def __post_init__(self):
        # every route to a Scenario (config file, built-in, --mesh-n and --tol
        # overrides) passes here
        positive = {("density", "mu"): self.mu, ("experiment", "tol"): self.tol,
                    ("experiment", "cg_tol"): self.cg_tol,
                    ("experiment", "grad_tol"): self.grad_tol}
        if self.mesh_kind == "rect":
            positive.update({("mesh", "nx"): self.nx, ("mesh", "ny"): self.ny})
            for axis, (lo, hi) in (("x", self.x_range), ("y", self.y_range)):
                if not -math.inf < lo < hi < math.inf:
                    key = f"{axis}_max" if math.isfinite(lo) else f"{axis}_min"
                    raise ConfigError(f"needs finite {axis}_min < {axis}_max, got {lo!r}, {hi!r}",
                                      "mesh", key)
        for (section, key), value in positive.items():
            if not 0.0 < value < math.inf:
                raise ConfigError(f"must be finite and positive, got {value!r}", section, key)
        nonnegative = {("density", "lambda"): self.lam,
                       ("experiment", "refinements"): self.refinements}
        for (section, key), value in nonnegative.items():
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"must be finite and nonnegative, got {value!r}", section, key)
        hs = self.h_list
        if not all(0.0 < h < math.inf for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigError(f"must be finite, positive and strictly decreasing, got {list(hs)}",
                              "experiment", "h_list")
        if not all(0.0 <= t < math.inf for t in self.shift_ts):
            raise ConfigError(f"must be finite and nonnegative, got {list(self.shift_ts)}",
                              "experiment", "shift_ts")

    def load_spec(self):
        return LoadSpec(dict(self.tractions), self.body)

    def build_mesh(self):
        """The rect or file mesh, refined ``refinements`` times; every stage runs on it."""
        if self.mesh_kind == "rect":
            mesh = rect_mesh(self.nx, self.ny, self.x_range, self.y_range)
        else:
            with open(self.mesh_path, encoding="utf-8") as fh:
                mesh, _ = read_mesh(fh.read())
        for _ in range(self.refinements):
            mesh = refine(mesh)
        return mesh

    def effective_config(self):
        """Canonical config text restating every effective parameter."""
        out = io.StringIO()
        out.write(f"[scenario]\nname = {self.name}\n\n")
        out.write("[mesh]\n")
        out.write(f"kind = {self.mesh_kind}\n")
        if self.mesh_kind == "rect":
            out.write(f"nx = {self.nx}\nny = {self.ny}\n")
            out.write(f"x_min = {self.x_range[0]!r}\nx_max = {self.x_range[1]!r}\n")
            out.write(f"y_min = {self.y_range[0]!r}\ny_max = {self.y_range[1]!r}\n")
        else:
            out.write(f"path = {self.mesh_path}\n")
        out.write("\n[density]\n")
        out.write(f"mu = {self.mu!r}\nlambda = {self.lam!r}\n")
        for tag in sorted(self.tractions):
            rule = self.tractions[tag]
            out.write(f"\n[loads.{tag}]\n")
            vals = " ".join(repr(v) for v in rule.value)
            out.write(f"{rule.kind} = {vals}\n")
        out.write("\n[loads.body]\n")
        out.write(f"kind = {self.body.kind}\n")
        if self.body.kind == "constant":
            out.write(f"value = {self.body.value[0]!r} {self.body.value[1]!r}\n")
        elif self.body.kind == "linear":
            out.write("matrix = " + " ".join(repr(v) for v in self.body.value) + "\n")
        out.write("\n[experiment]\n")
        out.write("h_list = " + " ".join(repr(h) for h in self.h_list) + "\n")
        out.write(f"refinements = {self.refinements}\n")
        out.write(f"tol = {self.tol!r}\n")
        out.write(f"cg_tol = {self.cg_tol!r}\n")
        out.write(f"grad_tol = {self.grad_tol!r}\n")
        out.write("shift_ts = " + " ".join(repr(t) for t in self.shift_ts) + "\n")
        return out.getvalue()

    def config_hash(self):
        return hashlib.sha256(self.effective_config().encode()).hexdigest()


def _floats(raw, section, key):
    try:
        return tuple(float(tok) for tok in raw.split())
    except ValueError as exc:
        raise ConfigError(f"bad number list {raw!r} ({exc})", section, key) from None


def _number(parser, section, key, default):
    """The option parsed as the type of ``default`` (int or float); ``default`` when absent."""
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return type(default)(raw)
    except ValueError:
        kind = "integer" if isinstance(default, int) else "number"
        raise ConfigError(f"bad {kind} {raw!r}", section, key) from None


def parse_scenario(text, name=None):
    """Parse a scenario config; unknown sections and keys are errors."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    if parser.defaults():
        raise ConfigError("unknown section", parser.default_section)
    for section in parser.sections():
        allowed = _KEYS.get(section, _TRACTION_KEYS if section.startswith("loads.") else None)
        if allowed is None:
            raise ConfigError("unknown section", section)
        for key in parser.options(section):
            if key not in allowed:
                raise ConfigError("unknown key", section, key)

    sc_name = name or (parser.get("scenario", "name", fallback="unnamed"))

    mesh_kind = parser.get("mesh", "kind", fallback="rect")
    if mesh_kind not in ("rect", "file"):
        raise ConfigError(f"unknown mesh kind {mesh_kind!r}", "mesh", "kind")
    mesh_path = parser.get("mesh", "path", fallback="")
    if mesh_kind == "file" and not mesh_path:
        raise ConfigError("mesh kind 'file' needs a path", "mesh", "path")
    nx = _number(parser, "mesh", "nx", 16)
    ny = _number(parser, "mesh", "ny", 16)
    x_range = (_number(parser, "mesh", "x_min", -0.5), _number(parser, "mesh", "x_max", 0.5))
    y_range = (_number(parser, "mesh", "y_min", -0.5), _number(parser, "mesh", "y_max", 0.5))

    mu = _number(parser, "density", "mu", 1.0)
    lam = _number(parser, "density", "lambda", 1.0)

    tractions = {}
    body = BodyForce()
    for section in parser.sections():
        if not section.startswith("loads."):
            continue
        tag = section[len("loads."):]
        if tag == "body":
            kind = parser.get(section, "kind", fallback="zero")
            try:
                if kind == "zero":
                    body = BodyForce()
                elif kind == "constant":
                    body = BodyForce("constant", _floats(
                        parser.get(section, "value", fallback=""), section, "value"))
                elif kind == "linear":
                    body = BodyForce("linear", _floats(
                        parser.get(section, "matrix", fallback=""), section, "matrix"))
                else:
                    raise ConfigError(f"unknown body force kind {kind!r}", section, "kind")
            except ValueError as exc:
                raise ConfigError(str(exc), section) from None
            continue
        keys = [k for k in sorted(_TRACTION_KEYS) if parser.has_option(section, k)]
        if len(keys) != 1:
            raise ConfigError(
                "need exactly one of constant / pressure / tangential", section)
        kind = keys[0]
        vals = _floats(parser.get(section, kind), section, kind)
        try:
            tractions[tag] = TractionRule(kind, vals)
        except ValueError as exc:
            raise ConfigError(str(exc), section, kind) from None

    h_list = _floats(parser.get("experiment", "h_list", fallback=""), "experiment", "h_list")
    shift_ts = _floats(parser.get("experiment", "shift_ts", fallback=""), "experiment", "shift_ts")

    return Scenario(
        name=sc_name,
        mesh_kind=mesh_kind,
        nx=nx,
        ny=ny,
        x_range=x_range,
        y_range=y_range,
        mesh_path=mesh_path,
        mu=mu,
        lam=lam,
        tractions=tractions,
        body=body,
        h_list=h_list,
        refinements=_number(parser, "experiment", "refinements", 0),
        tol=_number(parser, "experiment", "tol", 1e-9),
        cg_tol=_number(parser, "experiment", "cg_tol", 1e-10),
        grad_tol=_number(parser, "experiment", "grad_tol", 1e-8),
        shift_ts=shift_ts,
    )


def _all_sides(rule_factory):
    return {tag: rule_factory() for tag in ("left", "right", "top", "bottom")}


def builtin_scenarios():
    """The built-in scenario library, keyed by name."""
    return {
        "tension": Scenario(
            name="tension",
            nx=32, ny=32,
            tractions=_all_sides(lambda: TractionRule("pressure", (16.0,))),
            h_list=DEFAULT_H_LIST,
        ),
        "compression": Scenario(
            name="compression",
            nx=32, ny=32,
            tractions=_all_sides(lambda: TractionRule("pressure", (-1.0,))),
            h_list=(0.2, 0.1, 0.05),
        ),
        "infmany": Scenario(
            name="infmany",
            nx=32, ny=32,
            tractions={
                "right": TractionRule("constant", (0.0, 1.0)),
                "left": TractionRule("constant", (0.0, -1.0)),
                "top": TractionRule("constant", (1.0, 0.0)),
                "bottom": TractionRule("constant", (-1.0, 0.0)),
            },
            shift_ts=(0.5, 1.0, 2.0),
        ),
        "bodyforce": Scenario(
            name="bodyforce",
            nx=16, ny=16,
            tractions=_all_sides(lambda: TractionRule("constant", (0.0, 0.0))),
            body=BodyForce("linear", (1.0, 0.0, 0.0, 1.0)),
            h_list=(0.1, 0.05),
        ),
    }


def load_scenario(source, mesh_n=None, tol=None):
    """Resolve a scenario from a built-in name or a config file path."""
    builtins = builtin_scenarios()
    if source in builtins:
        sc = builtins[source]
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(
                f"{source!r} is neither a built-in scenario ({', '.join(sorted(builtins))}) "
                f"nor a readable config file ({exc})"
            ) from None
        sc = parse_scenario(text)
    if mesh_n is not None:
        if sc.mesh_kind != "rect":
            raise ConfigError("--mesh-n applies only to rect meshes", "mesh", "kind")
        sc = replace(sc, nx=int(mesh_n), ny=int(mesh_n))
    if tol is not None:
        sc = replace(sc, tol=float(tol))
    return sc
