"""Scenario configuration: parsing, defaults, and the built-in library.

Configs are INI-style text with sections [scenario], [mesh], [density],
[loads.<tag>], [loads.body] and [experiment].  The tables ``_FIELDS`` (scalar
and list keys) and ``_BODY_KEYS`` (the body force) are the schema: parsing,
the key check, the error locations and the echo all read them, and every
default is a ``Scenario`` field default.  Every effective parameter
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

# Scenario field -> (section, key), in echo order; a range field has a
# (min, max) key pair.  The [loads.*] sections are echoed before [experiment].
_FIELDS = {
    "name": ("scenario", "name"),
    "mesh_kind": ("mesh", "kind"),
    "nx": ("mesh", "nx"),
    "ny": ("mesh", "ny"),
    "x_range": ("mesh", "x_min", "x_max"),
    "y_range": ("mesh", "y_min", "y_max"),
    "mesh_path": ("mesh", "path"),
    "mu": ("density", "mu"),
    "lam": ("density", "lambda"),
    "h_list": ("experiment", "h_list"),
    "refinements": ("experiment", "refinements"),
    "tol": ("experiment", "tol"),
    "cg_tol": ("experiment", "cg_tol"),
    "grad_tol": ("experiment", "grad_tol"),
    "shift_ts": ("experiment", "shift_ts"),
}
# fields that only one mesh kind reads, so only its configs set and its echo restates
_MESH_KIND_OF = {"nx": "rect", "ny": "rect", "x_range": "rect", "y_range": "rect",
                 "mesh_path": "file"}
# the body force's section and kind key, and kind -> the one value key it reads
_BODY = ("loads.body", "kind")
_BODY_KEYS = {"zero": None, "constant": "value", "linear": "matrix"}
# every [loads.<tag>] but body is a traction with exactly one of these keys
_TRACTION_KEYS = {"constant", "pressure", "tangential"}

# the keys each config section accepts
_KEYS = {_BODY[0]: {_BODY[1], *filter(None, _BODY_KEYS.values())}}
for _section, *_keys in _FIELDS.values():
    _KEYS.setdefault(_section, set()).update(_keys)


def _split(keys, value):
    """A field's value as (key, value) pairs: a range spans its key pair."""
    return zip(keys, value if len(keys) > 1 else (value,))


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
        if self.mesh_kind not in ("rect", "file"):
            raise ConfigError(f"unknown mesh kind {self.mesh_kind!r}", *_FIELDS["mesh_kind"])
        if self.mesh_kind == "file" and not self.mesh_path:
            raise ConfigError("mesh kind 'file' needs a path", *_FIELDS["mesh_path"])
        for fld in filter(self._reads, ("x_range", "y_range")):
            section, key_min, key_max = _FIELDS[fld]
            lo, hi = getattr(self, fld)
            if not -math.inf < lo < hi < math.inf:
                raise ConfigError(f"needs finite {key_min} < {key_max}, got {lo!r}, {hi!r}",
                                  section, key_max if math.isfinite(lo) else key_min)
        for fld in filter(self._reads, ("mu", "tol", "cg_tol", "grad_tol", "nx", "ny")):
            if not 0.0 < getattr(self, fld) < math.inf:
                raise ConfigError(f"must be finite and positive, got {getattr(self, fld)!r}",
                                  *_FIELDS[fld])
        for fld in ("lam", "refinements"):
            if not 0.0 <= getattr(self, fld) < math.inf:
                raise ConfigError(f"must be finite and nonnegative, got {getattr(self, fld)!r}",
                                  *_FIELDS[fld])
        hs = self.h_list
        if not all(0.0 < h < math.inf for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
            raise ConfigError(f"must be finite, positive and strictly decreasing, got {list(hs)}",
                              *_FIELDS["h_list"])
        if not all(0.0 <= t < math.inf for t in self.shift_ts):
            raise ConfigError(f"must be finite and nonnegative, got {list(self.shift_ts)}",
                              *_FIELDS["shift_ts"])

    def _reads(self, fld):
        """Whether this scenario's mesh kind reads the field."""
        return _MESH_KIND_OF.get(fld, self.mesh_kind) == self.mesh_kind

    def load_spec(self):
        return LoadSpec(dict(self.tractions), self.body)

    def build_mesh(self):
        """The rect or file mesh, refined ``refinements`` times, that every stage runs on;
        a traction rule for a tag that no boundary edge carries is a ConfigError."""
        if self.mesh_kind == "rect":
            mesh = rect_mesh(self.nx, self.ny, self.x_range, self.y_range)
        else:
            try:
                with open(self.mesh_path, encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"unreadable mesh file ({exc})", *_FIELDS["mesh_path"]) from None
            mesh, _ = read_mesh(text)
        for _ in range(self.refinements):
            mesh = refine(mesh)
        for tag in sorted(set(self.tractions) - set(mesh.edge_tags)):
            raise ConfigError("no boundary edge of the mesh has this tag", f"loads.{tag}")
        return mesh

    def effective_config(self):
        """Canonical config text restating every effective parameter."""
        sections = {}
        for fld, (section, *keys) in _FIELDS.items():
            if self._reads(fld):
                sections.setdefault(section, {}).update(_split(keys, getattr(self, fld)))
        experiment = sections.pop("experiment")
        for tag in sorted(self.tractions):
            rule = self.tractions[tag]
            sections[f"loads.{tag}"] = {rule.kind: rule.value}
        section, kind_key = _BODY
        sections[section] = {kind_key: self.body.kind}
        if _BODY_KEYS[self.body.kind]:
            sections[section][_BODY_KEYS[self.body.kind]] = self.body.value
        sections["experiment"] = experiment
        return "\n".join(f"[{section}]\n" + "".join(f"{key} = {_text(value)}\n"
                                                     for key, value in items.items())
                         for section, items in sections.items())

    def config_hash(self):
        return hashlib.sha256(self.effective_config().encode()).hexdigest()


def _text(value):
    """A value as the echo writes it; floats by repr, so they parse back exactly."""
    if isinstance(value, (tuple, list)):
        return " ".join(repr(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _parse(parser, section, key, default):
    """The option read as the type of ``default`` (str, int, float or a tuple of
    floats); ``default`` when absent."""
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return tuple(map(float, raw.split())) if isinstance(default, tuple) else type(default)(raw)
    except ValueError as exc:
        if isinstance(default, tuple):
            raise ConfigError(f"bad number list {raw!r} ({exc})", section, key) from None
        kind = "integer" if isinstance(default, int) else "number"
        raise ConfigError(f"bad {kind} {raw!r}", section, key) from None


def _rule(cls, kind, parser, section, key):
    """``cls(kind, value)``, the value read from ``key`` (none without a key) and
    its errors located there."""
    value = _parse(parser, section, key, ()) if key else ()
    try:
        return cls(kind, value)
    except ValueError as exc:
        raise ConfigError(str(exc), section, key) from None


def parse_scenario(text):
    """Parse a scenario config; unknown sections and keys, and unread kind keys, are errors."""
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

    defaults = Scenario()
    fields = {}
    for fld, (section, *keys) in _FIELDS.items():
        values = tuple(_parse(parser, section, key, default)
                       for key, default in _split(keys, getattr(defaults, fld)))
        fields[fld] = values if len(keys) > 1 else values[0]

    tractions = {}
    for section in parser.sections():
        if not section.startswith("loads.") or section == _BODY[0]:
            continue
        keys = [k for k in sorted(_TRACTION_KEYS) if parser.has_option(section, k)]
        if len(keys) != 1:
            raise ConfigError(
                "need exactly one of constant / pressure / tangential", section)
        tag = section[len("loads."):]
        tractions[tag] = _rule(TractionRule, keys[0], parser, section, keys[0])

    section, kind_key = _BODY
    kind = _parse(parser, section, kind_key, defaults.body.kind)
    if kind not in _BODY_KEYS:
        raise ConfigError(f"unknown body force kind {kind!r}", section, kind_key)
    key = _BODY_KEYS[kind]
    for other in _BODY_KEYS.values():
        if other not in (None, key) and parser.has_option(section, other):
            raise ConfigError(f"not read by body force kind {kind!r}", section, other)
    body = _rule(BodyForce, kind, parser, section, key)
    sc = Scenario(tractions=tractions, body=body, **fields)
    for fld, (section, *keys) in _FIELDS.items():
        for key in keys:
            if not sc._reads(fld) and parser.has_option(section, key):
                raise ConfigError(f"not read by mesh kind {sc.mesh_kind!r}", section, key)
    return sc


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
            raise ConfigError("--mesh-n applies only to rect meshes", *_FIELDS["mesh_kind"])
        sc = replace(sc, nx=int(mesh_n), ny=int(mesh_n))
    if tol is not None:
        sc = replace(sc, tol=float(tol))
    return sc
