"""Experiment configuration: strict JSON schema, builders, and emitters.

Config files are plain JSON with a fixed schema; unknown keys are hard
errors so that typos never silently fall back to defaults.  Each section is
one table of {key: (reader, default)}, so every key, default and bound is
stated once, and one function reads them all.  Numeric output uses '.'
decimals, '\\n' line ends, and shortest round-trip float formatting, which
makes runs with identical config byte-identical.
"""

import csv
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .errors import ConfigError, InvalidParameterError, SpecrecError
from .kernels import WeightFunction
from .nonlinearity import MemoryKernel, PowerLaw, Zero
from .recover import ConditionE, ConditionE100, ConditionE200
from .spectral import (FractionalNormSpec, analyze, build_fourth_order,
                       build_second_order, default_grading, default_shift,
                       make_graded_grid)

_FLOAT_MAX = sys.float_info.max
# The operator keeps its basis and two transform matrices, grid_size x modes
# floats each; 2**26 of them (512 MiB) bounds each matrix.
_MAX_OPERATOR_ENTRIES = 2**26
_REQUIRED = object()  # the default slot of a key that must be given


# --------------------------------------------------------------------------
# readers: each takes a key's path and its JSON value and returns the value
# read, or raises ConfigError naming the path
# --------------------------------------------------------------------------

def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    return obj


def _number(path, val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path} must be a number")
    if not abs(val) <= _FLOAT_MAX:  # NaN, Infinity, or an int past float
        raise ConfigError(f"{path} must be finite")
    return float(val)


def _integer(path, val):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path} must be an integer")
    return int(val)


def _numbers(path, val):
    if not isinstance(val, list) or not val or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val):
        raise ConfigError(f"{path} must be a nonempty list of numbers")
    if not all(abs(x) <= _FLOAT_MAX for x in val):
        raise ConfigError(f"{path} must hold finite numbers")
    return tuple(float(x) for x in val)


def _bounded(read, ok, message):
    """``read``, then a bound on the value read; ``message`` names its
    failure after the path."""
    def read_bounded(path, val):
        val = read(path, val)
        if not ok(val):
            raise ConfigError(f"{path} {message}")
        return val
    return read_bounded


_positive = _bounded(_number, lambda v: v > 0, "must be positive")


def _optional(read, empty=None):
    """The (reader, default) entry of a key that may be absent or null:
    both read as the document ``empty``, or as None when there is none."""
    def read_optional(path, val):
        val = empty if val is None else val
        return None if val is None else read(path, val)
    return read_optional, read_optional(None, None)


def _section(obj, path, fields, tag=None):
    """Read the JSON object at ``path`` by its table ``fields`` of
    {key: (reader, default or _REQUIRED)}: unknown keys first, then
    missing required keys, then each key in table order.  ``tag`` is the
    key that picked the table, allowed but not read."""
    obj = _require_mapping(obj, path)
    for key in obj:
        if key != tag and key not in fields:
            raise ConfigError(f"unknown key '{key}' in {path}")
    for key, (_, default) in fields.items():
        if default is _REQUIRED and key not in obj:
            raise ConfigError(f"missing required key '{key}' in {path}")
    return {key: read(f"{path}.{key}", obj[key]) if key in obj else default
            for key, (read, default) in fields.items()}


def _plain(path, fields, make):
    """Reader of the section at ``path``, passed to ``make`` by key."""
    return lambda _, obj: make(**_section(obj, path, fields))


@dataclasses.dataclass(frozen=True)
class Tagged:
    """A tagged section: the variant its tag names and the values of its
    keys, in schema order, absent ones at their defaults."""
    kind: str
    fields: dict


def _tagged(path, tag, message, variants, make=Tagged):
    """Reader of the section at ``path`` whose key ``tag`` picks one of
    ``variants`` ({variant: fields}); ``message`` names a tag that picks
    none.  Gives ``make(variant, values)``."""
    def read(_, obj):
        obj = _require_mapping(obj, path)
        kind = obj.get(tag)
        if not isinstance(kind, str) or kind not in variants:
            raise ConfigError(message.format(kind))
        return make(kind, _section(obj, path, variants[kind], tag))
    return read


@dataclasses.dataclass(frozen=True)
class ConditionSpec:
    problem: str
    a: float           # 0 for E100 and E200, which have no a*u(T) term
    b: object          # the WeightFunction for E/E200, a float for E100
    m_source: Tagged


# --------------------------------------------------------------------------
# the schema
# --------------------------------------------------------------------------

# constructors by variant, each taking its section's keys in schema order
_NONLINEARITIES = {"zero": Zero, "power": PowerLaw, "memory": MemoryKernel}
_CONDITIONS = {"E": ConditionE, "E100": ConditionE100, "E200": ConditionE200}

_WEIGHT = _tagged("weight", "type", "unknown weight type {!r}", {
    "constant": {"value": (_number, _REQUIRED)},
    "poly": {"coeffs": (_numbers, _REQUIRED)},
    "table": {"t": (_numbers, _REQUIRED), "b": (_numbers, _REQUIRED)},
}, make=lambda kind, values: getattr(WeightFunction, kind)(*values.values()))


def _weight_for(problem):
    """Reader of condition.b for a problem that takes a weight object; a
    weight its constructor rejects is a config error at ``path``."""
    def read(path, val):
        if not isinstance(val, dict):
            raise ConfigError(
                f"{path} must be a weight object for problem {problem}")
        try:
            return _WEIGHT(path, val)
        except InvalidParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return read


def _scalar_b(path, val):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError("E100 requires scalar b")
    return _number(path, val)


_M = _tagged("condition.M", "type",
             "condition.M.type must be 'coefficients' or 'from-u0'", {
                 "coefficients": {"values": (_numbers, _REQUIRED)},
                 "from-u0": {},
             })

_MODES = {"modes": (_integer, 64), "grid_size": (_integer, None)}
_SECOND_ORDER = {**_MODES, "d": (_number, 1.0), "c0": (_number, 0.0)}

_SOLVER = {
    "tol": (_positive, 1e-10),
    "max_iter": (_bounded(_integer, lambda v: v >= 1, "must be positive"),
                 200),
    "theta": (_number, 0.25),
    "gamma": (_number, 0.0),
    "nu": _optional(_number),        # None: resolved from the nonlinearity
    "delta0": _optional(_number),    # None: resolved from the operator
}

_GRID = {
    "T": (_positive, _REQUIRED),
    "n": (_bounded(_integer, lambda v: v >= 2, "must be at least 2"),
          _REQUIRED),
    "r": (_bounded(_number, lambda v: v >= 1.0, "must be >= 1"), None),
}

# the records of the plain sections, one field per key of their tables
SolverSpec = dataclasses.make_dataclass("SolverSpec", _SOLVER, frozen=True)
GridSpec = dataclasses.make_dataclass("GridSpec", _GRID, frozen=True)

_CONFIG = {  # read in this order: the first error found is reported
    "solver": _optional(_plain("solver", _SOLVER, SolverSpec), {}),
    "sweep": _optional(_plain("sweep", {"scales": (_numbers, _REQUIRED)},
                              lambda scales: scales)),
    "seed": (_integer, 0),      # kept for old configs; nothing draws from it
    "operator": (_tagged(
        "operator", "family",
        "operator.family must be one of dirichlet2, neumann2, pinned4", {
            "dirichlet2": _SECOND_ORDER,
            "neumann2": _SECOND_ORDER,
            "pinned4": {**_MODES, "d1": (_number, 1.0),
                        "d2": (_number, 0.0)},
        }), _REQUIRED),
    "condition": (_tagged(
        "condition", "problem",
        "condition.problem must be 'E', 'E100' or 'E200'", {
            "E": {"a": (_number, 0.0), "b": (_weight_for("E"), _REQUIRED),
                  "M": (_M, _REQUIRED)},
            "E100": {"b": (_scalar_b, _REQUIRED), "M": (_M, _REQUIRED)},
            "E200": {"b": (_weight_for("E200"), _REQUIRED),
                     "M": (_M, _REQUIRED)},
        }, make=lambda problem, values: ConditionSpec(
            problem, values.get("a", 0.0), values["b"], values["M"])),
        _REQUIRED),
    "nonlinearity": _optional(_tagged(
        "nonlinearity", "type",
        "nonlinearity.type must be 'zero', 'power' or 'memory'", {
            "zero": {},
            "power": {"kappa": (_number, _REQUIRED),
                      "ell": (_positive, _REQUIRED)},
            "memory": {"c": (_number, _REQUIRED),
                       "lambda": (_bounded(_number, lambda v: v > -1.0,
                                           "must exceed -1"), _REQUIRED),
                       "ell": (_positive, _REQUIRED)},
        }), {"type": "zero"}),
    "grid": (_plain("grid", _GRID, GridSpec), _REQUIRED),
    "u0": _optional(_tagged(
        "u0", "type",
        "u0.type must be 'coefficients', 'mode' or 'gauss-bump'", {
            "coefficients": {"values": (_numbers, _REQUIRED)},
            "mode": {"index": (_integer, _REQUIRED),
                     "amplitude": (_number, 1.0)},
            "gauss-bump": {"center": (_number, _REQUIRED),
                           "width": (_positive, _REQUIRED),
                           "amplitude": (_number, 1.0)},
        })),
}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    operator: Tagged
    condition: ConditionSpec
    nonlinearity: Tagged
    grid: GridSpec
    solver: SolverSpec
    u0: Tagged              # None when the config has no u0
    sweep_scales: tuple     # None when the config has no sweep
    seed: int

    def build_operator(self):
        """The operator, built when the config was read and shared by every
        caller, since it is immutable."""
        return self._operator

    @functools.cached_property
    def _operator(self):
        kind, spec = self.operator.kind, self.operator.fields
        if kind == "pinned4":
            return build_fourth_order(spec["modes"], spec["d1"], spec["d2"],
                                      grid_size=spec["grid_size"])
        bc = "dirichlet" if kind == "dirichlet2" else "neumann"
        return build_second_order(spec["modes"], spec["d"], spec["c0"], bc,
                                  grid_size=spec["grid_size"])

    def build_weight(self):
        """The observation weight, built once when the config was read:
        a WeightFunction for E and E200, the scalar b for E100."""
        return self.condition.b

    def build_condition(self, M):
        """The condition of the config's problem for the data M; only
        problem E takes the coefficient a."""
        spec = self.condition
        head = (spec.a,) if spec.problem == "E" else ()
        return _CONDITIONS[spec.problem](*head, self.build_weight(), M)

    def build_nonlinearity(self):
        spec = self.nonlinearity
        return _NONLINEARITIES[spec.kind](*spec.fields.values())

    def build_grid(self):
        return make_graded_grid(self.grid.T, self.grid.n, self.grid.r)

    def build_norm_spec(self, op):
        delta0 = self.solver.delta0
        if delta0 is None:
            delta0 = default_shift(op)
        return FractionalNormSpec(self.solver.theta, delta0)

    def resolved_nu(self):
        if self.solver.nu is not None:
            return self.solver.nu
        f = self.build_nonlinearity()
        _, nu = f.declared_exponents(self.solver.theta)
        return nu

    def resolve_u0(self, op):
        if self.u0 is None:
            raise ConfigError("this run needs a 'u0' block in the config")
        kind, spec = self.u0.kind, self.u0.fields
        if kind == "coefficients":
            values = np.asarray(spec["values"], dtype=float)
            if values.shape != (op.n_modes,):
                raise ConfigError(
                    f"u0.values has length {values.size}, expected {op.n_modes}"
                )
            return values
        if kind == "mode":
            if not 1 <= spec["index"] <= op.n_modes:
                raise ConfigError(
                    f"u0.index must lie in [1, {op.n_modes}]"
                )
            u0 = np.zeros(op.n_modes)
            u0[spec["index"] - 1] = spec["amplitude"]
            return u0
        # gauss-bump profile sampled on the operator grid, then projected;
        # the distance is scaled before squaring, so no width overflows or
        # underflows the profile's exponent on its own
        with np.errstate(over="ignore"):
            bump = np.exp(-0.5 * ((op.points - spec["center"])
                                  / spec["width"]) ** 2)
        if not bump.any():
            raise ConfigError(
                "u0 gauss-bump is zero at every grid point; widen u0.width "
                "or move u0.center onto the operator grid")
        return analyze(op, spec["amplitude"] * bump)


def _check_across(cfg):
    """The checks of a value against another key or section, which no
    reader of a single key can make."""
    spec = cfg.operator.fields
    size, modes = spec["grid_size"], max(spec["modes"], 1)
    if size is not None and size * modes > _MAX_OPERATOR_ENTRIES:
        raise ConfigError(
            f"operator.grid_size must be at most "
            f"{_MAX_OPERATOR_ENTRIES // modes} for {modes} modes: the "
            f"operator keeps three grid_size x modes matrices, of at most "
            f"2**26 floats each")
    if cfg.operator.kind == "neumann2" and spec["c0"] == 0:
        # the library's message names a keyword that no config key sets
        raise ConfigError(
            "operator: Neumann with zero reaction has a zero eigenvalue; "
            "set operator.c0 > 0")
    try:
        cfg.build_operator()
    except SpecrecError as exc:
        raise ConfigError(f"operator: {exc}") from exc
    try:
        if isinstance(cfg.condition.b, WeightFunction):  # it must cover [0, T]
            cfg.condition.b.pieces(cfg.grid.T)
        cfg.build_condition(np.zeros(1))
    except SpecrecError as exc:
        raise ConfigError(f"condition.b: {exc}") from exc


def config_from_dict(data):
    """Validate a parsed JSON document and build an ExperimentConfig."""
    cfg = _section(data, "config", _CONFIG)
    if cfg["grid"].r is None:  # the grading suited to the solver's theta
        cfg["grid"] = dataclasses.replace(
            cfg["grid"], r=default_grading(cfg["solver"].theta))
    config = ExperimentConfig(sweep_scales=cfg.pop("sweep"), **cfg)
    _check_across(config)
    return config


def parse_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(data)


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def emit_csv(path_or_file, header, rows):
    """Write rows as CSV with a fixed header, '.' decimals and '\\n' ends."""
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", encoding="utf-8", newline="") if own \
        else path_or_file
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(cell) for cell in row])
    finally:
        if own:
            fh.close()


def to_jsonable(obj):
    """Convert reports (dataclasses, arrays, non-finite floats) to plain
    JSON-serializable data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.name != "trajectory"}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if math.isfinite(val) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    return obj


def emit_json(path_or_file, report):
    """Write a report object as deterministic, sorted-key JSON."""
    payload = json.dumps(to_jsonable(report), indent=2, sort_keys=True,
                         allow_nan=False)
    own = isinstance(path_or_file, (str, bytes))
    fh = open(path_or_file, "w", encoding="utf-8") if own else path_or_file
    try:
        fh.write(payload)
        fh.write("\n")
    finally:
        if own:
            fh.close()
