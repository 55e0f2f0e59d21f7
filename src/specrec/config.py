"""Experiment configuration: strict JSON schema, builders, and emitters.

Config files are plain JSON with a fixed schema; unknown keys are hard
errors so that typos never silently fall back to defaults.  Numeric output
uses '.' decimals, '\\n' line ends, and shortest round-trip float formatting,
which makes runs with identical config and seed byte-identical.
"""

import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .errors import ConfigError
from .kernels import ConstantWeight, PolynomialWeight, TabulatedWeight
from .nonlinearity import MemoryKernel, PowerLaw, Zero
from .spectral import (FractionalNormSpec, analyze, build_fourth_order,
                       build_second_order, default_grading, default_shift,
                       make_graded_grid)

_OPERATOR_FAMILIES = ("dirichlet2", "neumann2", "pinned4")
_FLOAT_MAX = sys.float_info.max


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    return obj


def _check_keys(obj, path, allowed, required=()):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {path}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key '{key}' in {path}")


def _number(obj, path, key, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key '{key}' in {path}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number")
    if not abs(val) <= _FLOAT_MAX:  # NaN, Infinity, or an int past float
        raise ConfigError(f"{path}.{key} must be finite")
    return float(val)


def _integer(obj, path, key, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"missing required key '{key}' in {path}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key} must be an integer")
    return int(val)


def _number_list(obj, path, key):
    val = obj.get(key)
    if not isinstance(val, list) or not val or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in val):
        raise ConfigError(f"{path}.{key} must be a nonempty list of numbers")
    if not all(abs(x) <= _FLOAT_MAX for x in val):
        raise ConfigError(f"{path}.{key} must hold finite numbers")
    return [float(x) for x in val]


@dataclasses.dataclass(frozen=True)
class OperatorSpec:
    family: str
    modes: int
    grid_size: int = None
    d: float = 1.0
    c0: float = 0.0
    d1: float = 1.0
    d2: float = 0.0


@dataclasses.dataclass(frozen=True)
class ConditionSpec:
    problem: str
    a: float
    b: object          # weight dict for E/E200, float for E100
    m_source: dict


@dataclasses.dataclass(frozen=True)
class U0Spec:
    kind: str
    index: int = None
    amplitude: float = 1.0
    center: float = None
    width: float = None
    values: tuple = None


@dataclasses.dataclass(frozen=True)
class NonlinearitySpec:
    kind: str
    kappa: float = 0.0
    c: float = 0.0
    lam: float = 0.0
    ell: float = 1.0


@dataclasses.dataclass(frozen=True)
class GridSpec:
    T: float
    n: int
    r: float


@dataclasses.dataclass(frozen=True)
class SolverSpec:
    tol: float
    max_iter: int
    theta: float
    gamma: float
    nu: float = None       # resolved from the nonlinearity when absent
    delta0: float = None   # resolved from the operator when absent


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    operator: OperatorSpec
    condition: ConditionSpec
    nonlinearity: NonlinearitySpec
    grid: GridSpec
    solver: SolverSpec
    u0: U0Spec = None
    sweep_scales: tuple = None
    seed: int = 0

    # ---- builders -------------------------------------------------------

    def build_operator(self):
        spec = self.operator
        if spec.family == "pinned4":
            return build_fourth_order(spec.modes, spec.d1, spec.d2,
                                      grid_size=spec.grid_size)
        bc = "dirichlet" if spec.family == "dirichlet2" else "neumann"
        return build_second_order(spec.modes, spec.d, spec.c0, bc,
                                  grid_size=spec.grid_size)

    def build_weight(self):
        if self.condition.problem == "E100":
            return self.condition.b  # scalar
        return build_weight(self.condition.b)

    def build_nonlinearity(self):
        spec = self.nonlinearity
        if spec.kind == "zero":
            return Zero()
        if spec.kind == "power":
            return PowerLaw(spec.kappa, spec.ell)
        return MemoryKernel(spec.c, spec.lam, spec.ell)

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
        spec = self.u0
        if spec.kind == "coefficients":
            values = np.asarray(spec.values, dtype=float)
            if values.shape != (op.n_modes,):
                raise ConfigError(
                    f"u0.values has length {values.size}, expected {op.n_modes}"
                )
            return values
        if spec.kind == "mode":
            if not 1 <= spec.index <= op.n_modes:
                raise ConfigError(
                    f"u0.index must lie in [1, {op.n_modes}]"
                )
            u0 = np.zeros(op.n_modes)
            u0[spec.index - 1] = spec.amplitude
            return u0
        # gauss-bump profile sampled on the operator grid, then projected
        x = op.points
        bump = spec.amplitude * np.exp(-(x - spec.center) ** 2
                                       / (2.0 * spec.width ** 2))
        return analyze(op, bump)


def build_weight(spec):
    """Build a WeightFunction from its config dict."""
    spec = _require_mapping(spec, "weight")
    kind = spec.get("type")
    if kind == "constant":
        _check_keys(spec, "weight", {"type", "value"}, required=("value",))
        return ConstantWeight(_number(spec, "weight", "value", required=True))
    if kind == "poly":
        _check_keys(spec, "weight", {"type", "coeffs"}, required=("coeffs",))
        return PolynomialWeight(_number_list(spec, "weight", "coeffs"))
    if kind == "table":
        _check_keys(spec, "weight", {"type", "t", "b"}, required=("t", "b"))
        return TabulatedWeight(_number_list(spec, "weight", "t"),
                               _number_list(spec, "weight", "b"))
    raise ConfigError(f"unknown weight type {kind!r}")


def _parse_operator(obj):
    obj = _require_mapping(obj, "operator")
    family = obj.get("family")
    if family not in _OPERATOR_FAMILIES:
        raise ConfigError(
            f"operator.family must be one of {', '.join(_OPERATOR_FAMILIES)}"
        )
    common = {"family", "modes", "grid_size"}
    if family == "pinned4":
        _check_keys(obj, "operator", common | {"d1", "d2"})
        return OperatorSpec(
            family=family,
            modes=_integer(obj, "operator", "modes", default=64),
            grid_size=_integer(obj, "operator", "grid_size"),
            d1=_number(obj, "operator", "d1", default=1.0),
            d2=_number(obj, "operator", "d2", default=0.0),
        )
    _check_keys(obj, "operator", common | {"d", "c0"})
    return OperatorSpec(
        family=family,
        modes=_integer(obj, "operator", "modes", default=64),
        grid_size=_integer(obj, "operator", "grid_size"),
        d=_number(obj, "operator", "d", default=1.0),
        c0=_number(obj, "operator", "c0", default=0.0),
    )


def _parse_m_source(obj):
    obj = _require_mapping(obj, "condition.M")
    kind = obj.get("type")
    if kind == "coefficients":
        _check_keys(obj, "condition.M", {"type", "values"}, required=("values",))
        return {"type": "coefficients",
                "values": _number_list(obj, "condition.M", "values")}
    if kind == "from-u0":
        _check_keys(obj, "condition.M", {"type"})
        return {"type": "from-u0"}
    raise ConfigError("condition.M.type must be 'coefficients' or 'from-u0'")


def _parse_condition(obj):
    obj = _require_mapping(obj, "condition")
    problem = obj.get("problem")
    if problem not in ("E", "E100", "E200"):
        raise ConfigError("condition.problem must be 'E', 'E100' or 'E200'")
    if problem == "E":
        _check_keys(obj, "condition", {"problem", "a", "b", "M"},
                    required=("b", "M"))
        a = _number(obj, "condition", "a", default=0.0)
        b = obj["b"]
        if not isinstance(b, dict):
            raise ConfigError("condition.b must be a weight object for problem E")
        build_weight(b)  # validate eagerly
    elif problem == "E100":
        _check_keys(obj, "condition", {"problem", "b", "M"}, required=("b", "M"))
        a = 0.0
        b = obj["b"]
        if isinstance(b, bool) or not isinstance(b, (int, float)):
            raise ConfigError("E100 requires scalar b")
        b = _number(obj, "condition", "b")
    else:
        _check_keys(obj, "condition", {"problem", "b", "M"}, required=("b", "M"))
        a = 0.0
        b = obj["b"]
        if not isinstance(b, dict):
            raise ConfigError("condition.b must be a weight object for problem E200")
        build_weight(b)
    return ConditionSpec(problem=problem, a=a, b=b,
                         m_source=_parse_m_source(obj["M"]))


def _parse_u0(obj):
    if obj is None:
        return None
    obj = _require_mapping(obj, "u0")
    kind = obj.get("type")
    if kind == "coefficients":
        _check_keys(obj, "u0", {"type", "values"}, required=("values",))
        return U0Spec(kind="coefficients",
                      values=tuple(_number_list(obj, "u0", "values")))
    if kind == "mode":
        _check_keys(obj, "u0", {"type", "index", "amplitude"},
                    required=("index",))
        return U0Spec(kind="mode",
                      index=_integer(obj, "u0", "index", required=True),
                      amplitude=_number(obj, "u0", "amplitude", default=1.0))
    if kind == "gauss-bump":
        _check_keys(obj, "u0", {"type", "center", "width", "amplitude"},
                    required=("center", "width"))
        return U0Spec(kind="gauss-bump",
                      center=_number(obj, "u0", "center", required=True),
                      width=_number(obj, "u0", "width", required=True),
                      amplitude=_number(obj, "u0", "amplitude", default=1.0))
    raise ConfigError("u0.type must be 'coefficients', 'mode' or 'gauss-bump'")


def _parse_nonlinearity(obj):
    if obj is None:
        return NonlinearitySpec(kind="zero")
    obj = _require_mapping(obj, "nonlinearity")
    kind = obj.get("type")
    if kind == "zero":
        _check_keys(obj, "nonlinearity", {"type"})
        return NonlinearitySpec(kind="zero")
    if kind == "power":
        _check_keys(obj, "nonlinearity", {"type", "kappa", "ell"},
                    required=("kappa", "ell"))
        return NonlinearitySpec(
            kind="power",
            kappa=_number(obj, "nonlinearity", "kappa", required=True),
            ell=_number(obj, "nonlinearity", "ell", required=True),
        )
    if kind == "memory":
        _check_keys(obj, "nonlinearity", {"type", "c", "lambda", "ell"},
                    required=("c", "lambda", "ell"))
        return NonlinearitySpec(
            kind="memory",
            c=_number(obj, "nonlinearity", "c", required=True),
            lam=_number(obj, "nonlinearity", "lambda", required=True),
            ell=_number(obj, "nonlinearity", "ell", required=True),
        )
    raise ConfigError("nonlinearity.type must be 'zero', 'power' or 'memory'")


def _parse_solver(obj):
    if obj is None:
        obj = {}
    obj = _require_mapping(obj, "solver")
    _check_keys(obj, "solver",
                {"tol", "max_iter", "theta", "gamma", "nu", "delta0"})
    tol = _number(obj, "solver", "tol", default=1e-10)
    if not tol > 0:
        raise ConfigError("solver.tol must be positive")
    max_iter = _integer(obj, "solver", "max_iter", default=200)
    if max_iter < 1:
        raise ConfigError("solver.max_iter must be positive")
    theta = _number(obj, "solver", "theta", default=0.25)
    nu = obj.get("nu")
    delta0 = obj.get("delta0")
    return SolverSpec(
        tol=tol,
        max_iter=max_iter,
        theta=theta,
        gamma=_number(obj, "solver", "gamma", default=0.0),
        nu=None if nu is None else _number(obj, "solver", "nu"),
        delta0=None if delta0 is None else _number(obj, "solver", "delta0"),
    )


def _parse_grid(obj, theta):
    obj = _require_mapping(obj, "grid")
    _check_keys(obj, "grid", {"T", "n", "r"}, required=("T", "n"))
    T = _number(obj, "grid", "T", required=True)
    if not T > 0:
        raise ConfigError("grid.T must be positive")
    n = _integer(obj, "grid", "n", required=True)
    if n < 2:
        raise ConfigError("grid.n must be at least 2")
    r = _number(obj, "grid", "r", default=default_grading(theta))
    if r < 1.0:
        raise ConfigError("grid.r must be >= 1")
    return GridSpec(T=T, n=n, r=r)


def config_from_dict(data):
    """Validate a parsed JSON document and build an ExperimentConfig."""
    data = _require_mapping(data, "config")
    _check_keys(data, "config",
                {"operator", "condition", "u0", "nonlinearity", "grid",
                 "solver", "sweep", "seed"},
                required=("operator", "condition", "grid"))
    solver = _parse_solver(data.get("solver"))
    sweep = data.get("sweep")
    scales = None
    if sweep is not None:
        sweep = _require_mapping(sweep, "sweep")
        _check_keys(sweep, "sweep", {"scales"}, required=("scales",))
        scales = tuple(_number_list(sweep, "sweep", "scales"))
    seed = _integer(data, "config", "seed", default=0)
    return ExperimentConfig(
        operator=_parse_operator(data["operator"]),
        condition=_parse_condition(data["condition"]),
        nonlinearity=_parse_nonlinearity(data.get("nonlinearity")),
        grid=_parse_grid(data["grid"], solver.theta),
        solver=solver,
        u0=_parse_u0(data.get("u0")),
        sweep_scales=scales,
        seed=seed,
    )


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
