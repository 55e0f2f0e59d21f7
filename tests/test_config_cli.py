"""Config parsing, harness experiments, and the command-line surface."""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import specrec as sr
from specrec import config, harness, recover
from specrec.cli import main
from specrec.config import config_from_dict
from specrec.duhamel import _hat_weights
from specrec.harness import sweep_threshold
from _util import trapezoid

BASE = {
    "operator": {"family": "dirichlet2", "modes": 4, "d": 1.0, "c0": 0.0},
    "condition": {"problem": "E", "a": 0.0,
                  "b": {"type": "constant", "value": 1.0},
                  "M": {"type": "from-u0"}},
    "u0": {"type": "mode", "index": 1, "amplitude": 1.0},
    "nonlinearity": {"type": "zero"},
    "grid": {"T": 1.0, "n": 64},
    "solver": {"theta": 0.25},
    "seed": 7,
}


def deep(update, base=None):
    out = json.loads(json.dumps(base if base is not None else BASE))
    for path, value in update.items():
        parts = path.split(".")
        node = out
        for p in parts[:-1]:
            node = node[p]
        if value is ...:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return out


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestParsing:
    def test_minimal_defaults(self):
        cfg = config_from_dict(deep({"solver": ..., "nonlinearity": ...,
                                     "u0": ..., "seed": ...}))
        assert cfg.solver.tol == 1e-10
        assert cfg.solver.max_iter == 200
        assert cfg.solver.theta == 0.25
        assert cfg.grid.r == 4.0  # grading default 1/theta capped at 4
        assert cfg.seed == 0
        assert cfg.nonlinearity.kind == "zero"

    def test_unknown_key_named(self):
        with pytest.raises(sr.ConfigError, match="'foo'"):
            config_from_dict(deep({"operator.foo": 1}))
        with pytest.raises(sr.ConfigError, match="'bar'"):
            config_from_dict(deep({"bar": 1}))

    def test_e100_rejects_weight_object(self):
        data = deep({"condition": {"problem": "E100",
                                   "b": {"type": "table", "t": [0, 1],
                                         "b": [1, 1]},
                                   "M": {"type": "from-u0"}}})
        with pytest.raises(sr.ConfigError, match="E100 requires scalar b"):
            config_from_dict(data)

    def test_nonfinite_numbers_named(self):
        with pytest.raises(sr.ConfigError, match="solver.tol"):
            config_from_dict(deep({"solver.tol": -math.inf}))
        with pytest.raises(sr.ConfigError, match="grid.T"):
            config_from_dict(deep({"grid.T": math.nan}))
        with pytest.raises(sr.ConfigError, match="grid.T"):
            config_from_dict(deep({"grid.T": 10**400}))  # past the float range
        with pytest.raises(sr.ConfigError, match="u0.values"):
            config_from_dict(deep({"u0": {"type": "coefficients",
                                          "values": [1.0, math.inf]}}))
        with pytest.raises(sr.ConfigError, match="condition.b"):
            config_from_dict(deep({"condition": {"problem": "E100",
                                                 "b": math.nan,
                                                 "M": {"type": "from-u0"}}}))

    def test_family_specific_keys(self):
        with pytest.raises(sr.ConfigError, match="'d1'"):
            config_from_dict(deep({"operator.d1": 2.0}))
        data = deep({"operator": {"family": "pinned4", "modes": 3,
                                  "d1": 1.0, "d2": 0.5}})
        cfg = config_from_dict(data)
        op = cfg.build_operator()
        assert op.label == "pinned4"

    def test_grid_validation(self):
        with pytest.raises(sr.ConfigError):
            config_from_dict(deep({"grid.T": -1.0}))
        with pytest.raises(sr.ConfigError):
            config_from_dict(deep({"grid.n": 1}))

    def test_builders(self):
        cfg = config_from_dict(BASE)
        op = cfg.build_operator()
        assert op.n_modes == 4
        grid = cfg.build_grid()
        assert grid.T == 1.0
        spec = cfg.build_norm_spec(op)
        assert spec.theta == 0.25 and spec.delta0 == 0.0
        u0 = cfg.resolve_u0(op)
        assert u0.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_operator_built_once(self, monkeypatch):
        # reading the config builds the operator to check its values; every
        # later caller shares that immutable operator
        calls = []
        build = config.build_second_order

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(config, "build_second_order", counting)
        cfg = config_from_dict(BASE)
        assert cfg.build_operator() is cfg.build_operator()
        assert len(calls) == 1

    def test_gauss_bump_profile(self):
        data = deep({"u0": {"type": "gauss-bump", "center": math.pi / 2,
                            "width": 0.4, "amplitude": 0.5}})
        cfg = config_from_dict(data)
        op = cfg.build_operator()
        u0 = cfg.resolve_u0(op)
        # symmetric bump loads odd sine modes only
        assert abs(u0[0]) > 1e-3
        assert abs(u0[1]) < 1e-12

    @pytest.mark.parametrize("width", [0.0, -0.4])
    def test_gauss_bump_width_positive(self, tmp_path, capsys, width):
        # a zero width divided by zero into an all-zero u0 that the round
        # trip then "recovered" with zero error
        data = deep({"u0": {"type": "gauss-bump", "center": 1.5,
                            "width": width}})
        with pytest.raises(sr.ConfigError) as info:
            config_from_dict(data)
        assert str(info.value) == "u0.width must be positive"
        path = write_cfg(tmp_path, data)
        assert main(["roundtrip", "--config", path, "--quiet"]) == 4
        assert "u0.width must be positive" in capsys.readouterr().err

    def test_gauss_bump_extreme_widths(self, tmp_path, capsys):
        # the distance is scaled by the width before it is squared: a very
        # wide bump is flat, and one narrower than the grid spacing is zero
        # at every grid point, which is rejected rather than "recovered"
        wide = deep({"u0": dict(U0_BUMP, width=1e308, amplitude=0.5),
                     "grid.n": 8})
        cfg = config_from_dict(wide)
        op = cfg.build_operator()
        flat = sr.analyze(op, np.full(op.grid_size, 0.5))
        assert np.array_equal(cfg.resolve_u0(op), flat)
        assert main(["evolve", "--config", write_cfg(tmp_path, wide),
                     "--out", str(tmp_path / "wide.csv"), "--quiet"]) == 0

        narrow = deep({"u0": dict(U0_BUMP, width=1e-200), "grid.n": 8})
        cfg = config_from_dict(narrow)
        message = ("u0 gauss-bump is zero at every grid point; widen "
                   "u0.width or move u0.center onto the operator grid")
        with pytest.raises(sr.ConfigError) as info:
            cfg.resolve_u0(cfg.build_operator())
        assert str(info.value) == message
        assert main(["roundtrip", "--config", write_cfg(tmp_path, narrow),
                     "--quiet"]) == 4
        assert message in capsys.readouterr().err

    def test_null_reads_as_absent(self):
        # null is the absent value of the optional sections and solver keys
        cfg = config_from_dict(deep({"solver": None, "nonlinearity": None,
                                     "u0": None, "sweep": None}))
        assert cfg.solver.tol == 1e-10 and cfg.solver.nu is None
        assert cfg.nonlinearity.kind == "zero"
        assert cfg.u0 is None and cfg.sweep_scales is None
        cfg = config_from_dict(deep({"solver.nu": None,
                                     "solver.delta0": None}))
        assert cfg.solver.nu is None and cfg.solver.delta0 is None

    def test_literal_m_length_checked(self):
        data = deep({"condition.M": {"type": "coefficients",
                                     "values": [1.0, 2.0]}})
        cfg = config_from_dict(data)
        op = cfg.build_operator()
        f = cfg.build_nonlinearity()
        from specrec.harness import resolve_M
        with pytest.raises(sr.ConfigError, match="length 2"):
            resolve_M(cfg, op, f)

    def test_parse_config_file(self, tmp_path):
        path = write_cfg(tmp_path, BASE)
        cfg = sr.parse_config(path)
        assert cfg.seed == 7
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(sr.ConfigError, match="line 1"):
            sr.parse_config(str(bad))


E100 = {"problem": "E100", "b": 0.5, "M": {"type": "from-u0"}}
E200 = {"problem": "E200", "b": {"type": "constant", "value": 1.0},
        "M": {"type": "from-u0"}}
PINNED4 = {"family": "pinned4", "modes": 3, "d1": 1.0, "d2": 0.5}
POLY = {"type": "poly", "coeffs": [1.0, 0.5]}
TABLE = {"type": "table", "t": [0.0, 1.0], "b": [1.0, 1.0]}
M_LITERAL = {"type": "coefficients", "values": [1.0, 0.0, 0.0, 0.0]}
U0_BUMP = {"type": "gauss-bump", "center": 1.5, "width": 0.5}
U0_COEFFS = {"type": "coefficients", "values": [1.0, 0.0, 0.0, 0.0]}
POWER = {"type": "power", "kappa": 0.25, "ell": 1.0}
MEMORY = {"type": "memory", "c": 0.5, "lambda": -0.25, "ell": 1.0}
SWEEP = {"scales": [0.0, 1.0]}
# b = e puts mode 1 in the kernel: 1 - b e^{T lam_1} = 0
ILL_POSED = {"condition": {"problem": "E100", "b": math.exp(1.0),
                           "M": {"type": "from-u0"}},
             "operator": {"family": "dirichlet2", "modes": 4}}

# (document, exact message): every message the schema raises, each section
# and value check at least once, in the wording users see
PINNED_MESSAGES = [
    # the document and its top-level keys
    ([], "config must be an object"),
    (deep({"bar": 1}), "unknown key 'bar' in config"),
    (deep({"grid": ...}), "missing required key 'grid' in config"),
    (deep({"operator": ...}), "missing required key 'operator' in config"),
    (deep({"seed": 1.5}), "config.seed must be an integer"),
    (deep({"seed": True}), "config.seed must be an integer"),
    # operator
    (deep({"operator": 3}), "operator must be an object"),
    (deep({"operator.family": "x"}),
     "operator.family must be one of dirichlet2, neumann2, pinned4"),
    (deep({"operator.family": ...}),
     "operator.family must be one of dirichlet2, neumann2, pinned4"),
    (deep({"operator.d1": 1.0}), "unknown key 'd1' in operator"),
    (deep({"operator.modes": 4.5}), "operator.modes must be an integer"),
    (deep({"operator.grid_size": None}),
     "operator.grid_size must be an integer"),
    (deep({"operator.d": "1"}), "operator.d must be a number"),
    (deep({"operator.c0": math.inf}), "operator.c0 must be finite"),
    (deep({"operator": dict(PINNED4, d=1.0)}), "unknown key 'd' in operator"),
    (deep({"operator": dict(PINNED4, d2=math.nan)}),
     "operator.d2 must be finite"),
    (deep({"operator.grid_size": 10**23}),
     "operator.grid_size must be at most 16777216 for 4 modes: the operator "
     "keeps three grid_size x modes matrices, of at most 2**26 floats each"),
    # operator values that the operator's constructor rejects
    (deep({"operator.d": 0}), "operator: diffusivity must be positive"),
    (deep({"operator.family": "neumann2", "operator.c0": 0}),
     "operator: Neumann with zero reaction has a zero eigenvalue; set "
     "operator.c0 > 0"),
    (deep({"operator.grid_size": 3}),
     "operator: grid_size must exceed n_modes"),
    (deep({"operator.modes": 0}),
     "operator: n_modes must be a positive integer"),
    # condition
    (deep({"condition": []}), "condition must be an object"),
    (deep({"condition.problem": "F"}),
     "condition.problem must be 'E', 'E100' or 'E200'"),
    (deep({"condition.b": ...}), "missing required key 'b' in condition"),
    (deep({"condition.M": ...}), "missing required key 'M' in condition"),
    (deep({"condition.x": 1}), "unknown key 'x' in condition"),
    (deep({"condition.a": None}), "condition.a must be a number"),
    (deep({"condition.a": 10**400}), "condition.a must be finite"),
    (deep({"condition.b": 1.0}),
     "condition.b must be a weight object for problem E"),
    (deep({"condition": dict(E200, b=1.0)}),
     "condition.b must be a weight object for problem E200"),
    (deep({"condition": dict(E100, b=TABLE)}), "E100 requires scalar b"),
    (deep({"condition": dict(E100, b=True)}), "E100 requires scalar b"),
    (deep({"condition": dict(E100, b=math.nan)}), "condition.b must be finite"),
    (deep({"condition": dict(E100, a=0.0)}), "unknown key 'a' in condition"),
    # weights, under problem E and E200
    (deep({"condition.b": {"type": "cubic"}}), "unknown weight type 'cubic'"),
    (deep({"condition.b": {}}), "unknown weight type None"),
    (deep({"condition.b.value": ...}), "missing required key 'value' in weight"),
    (deep({"condition.b.value": "1"}), "weight.value must be a number"),
    (deep({"condition.b.value": -math.inf}), "weight.value must be finite"),
    (deep({"condition.b.coeffs": [1.0]}), "unknown key 'coeffs' in weight"),
    (deep({"condition.b": dict(POLY, coeffs=[])}),
     "weight.coeffs must be a nonempty list of numbers"),
    (deep({"condition.b": dict(POLY, coeffs=[1.0, math.nan])}),
     "weight.coeffs must hold finite numbers"),
    (deep({"condition": dict(E200, b={"type": "table", "t": [0.0, 1.0]})}),
     "missing required key 'b' in weight"),
    (deep({"condition.b": dict(TABLE, b=[1.0, True])}),
     "weight.b must be a nonempty list of numbers"),
    (deep({"condition.b": dict(TABLE, t=[0.0, 10**400])}),
     "weight.t must hold finite numbers"),
    (deep({"condition.b": dict(TABLE, b=[1.0, 1.0, 1.0])}),
     "condition.b: table needs matching time/value vectors"),
    (deep({"condition": dict(E200, b=dict(TABLE, t=[0.0, 0.0]))}),
     "condition.b: table nodes must be strictly increasing"),
    # 1 / 1e-310 overflows: once a RuntimeWarning and a failed recovery
    (deep({"condition.b": dict(TABLE, t=[0.0, 1e-310, 1.0],
                               b=[1.0, 2.0, 1.0])}),
     "condition.b: table slope on [0.0, 1e-310] is not finite"),
    # weights against the problem and the grid
    (deep({"condition.b": dict(TABLE, t=[0.5, 1.0])}),
     "condition.b: table covers [0.5, 1.0], not [0, 1.0]"),
    (deep({"condition.b": dict(POLY, coeffs=[0.0, 1.0])}),
     "condition.b: problem E requires b(0) != 0"),
    # the observation source
    (deep({"condition.M": 1}), "condition.M must be an object"),
    (deep({"condition.M.type": "u0"}),
     "condition.M.type must be 'coefficients' or 'from-u0'"),
    (deep({"condition.M.values": [1.0]}),
     "unknown key 'values' in condition.M"),
    (deep({"condition.M": {"type": "coefficients"}}),
     "missing required key 'values' in condition.M"),
    (deep({"condition.M": dict(M_LITERAL, values="1")}),
     "condition.M.values must be a nonempty list of numbers"),
    (deep({"condition.M": dict(M_LITERAL, values=[math.inf])}),
     "condition.M.values must hold finite numbers"),
    # u0
    (deep({"u0": 1}), "u0 must be an object"),
    (deep({"u0.type": "bump"}),
     "u0.type must be 'coefficients', 'mode' or 'gauss-bump'"),
    (deep({"u0.index": ...}), "missing required key 'index' in u0"),
    (deep({"u0.index": 1.0}), "u0.index must be an integer"),
    (deep({"u0.amplitude": "big"}), "u0.amplitude must be a number"),
    (deep({"u0.center": 0.0}), "unknown key 'center' in u0"),
    (deep({"u0": {"type": "gauss-bump", "center": 1.5}}),
     "missing required key 'width' in u0"),
    (deep({"u0": dict(U0_BUMP, center=math.nan)}), "u0.center must be finite"),
    (deep({"u0": dict(U0_BUMP, width=None)}), "u0.width must be a number"),
    (deep({"u0": dict(U0_COEFFS, values=[])}),
     "u0.values must be a nonempty list of numbers"),
    (deep({"u0": dict(U0_COEFFS, values=[1.0, math.inf])}),
     "u0.values must hold finite numbers"),
    # nonlinearity
    (deep({"nonlinearity": "zero"}), "nonlinearity must be an object"),
    (deep({"nonlinearity.type": "cubic"}),
     "nonlinearity.type must be 'zero', 'power' or 'memory'"),
    (deep({"nonlinearity.kappa": 1.0}), "unknown key 'kappa' in nonlinearity"),
    (deep({"nonlinearity": {"type": "power", "kappa": 0.25}}),
     "missing required key 'ell' in nonlinearity"),
    (deep({"nonlinearity": dict(POWER, kappa="1")}),
     "nonlinearity.kappa must be a number"),
    (deep({"nonlinearity": {"type": "memory", "lambda": -0.25,
                            "ell": 1.0}}),
     "missing required key 'c' in nonlinearity"),
    (deep({"nonlinearity": {**MEMORY, "lambda": math.inf}}),
     "nonlinearity.lambda must be finite"),
    (deep({"nonlinearity": dict(POWER, ell=0)}),
     "nonlinearity.ell must be positive"),
    (deep({"nonlinearity": dict(MEMORY, ell=-1.0)}),
     "nonlinearity.ell must be positive"),
    (deep({"nonlinearity": dict(MEMORY, **{"lambda": -1.0})}),
     "nonlinearity.lambda must exceed -1"),
    # grid
    (deep({"grid": None}), "grid must be an object"),
    (deep({"grid.dt": 0.1}), "unknown key 'dt' in grid"),
    (deep({"grid.n": ...}), "missing required key 'n' in grid"),
    (deep({"grid.T": "1"}), "grid.T must be a number"),
    (deep({"grid.T": 0.0}), "grid.T must be positive"),
    (deep({"grid.n": 64.0}), "grid.n must be an integer"),
    (deep({"grid.n": 1}), "grid.n must be at least 2"),
    (deep({"grid.r": 0.5}), "grid.r must be >= 1"),
    (deep({"grid.r": math.nan}), "grid.r must be finite"),
    # solver
    (deep({"solver": []}), "solver must be an object"),
    (deep({"solver.eps": 1.0}), "unknown key 'eps' in solver"),
    (deep({"solver.tol": 0.0}), "solver.tol must be positive"),
    (deep({"solver.tol": -math.inf}), "solver.tol must be finite"),
    (deep({"solver.max_iter": 0}), "solver.max_iter must be positive"),
    (deep({"solver.max_iter": 1e3}), "solver.max_iter must be an integer"),
    (deep({"solver.theta": None}), "solver.theta must be a number"),
    (deep({"solver.gamma": True}), "solver.gamma must be a number"),
    (deep({"solver.nu": "0.5"}), "solver.nu must be a number"),
    (deep({"solver.delta0": math.inf}), "solver.delta0 must be finite"),
    # sweep
    (deep({"sweep": 1}), "sweep must be an object"),
    (deep({"sweep": {}}), "missing required key 'scales' in sweep"),
    (deep({"sweep": dict(SWEEP, n=2)}), "unknown key 'n' in sweep"),
    (deep({"sweep": dict(SWEEP, scales=[])}),
     "sweep.scales must be a nonempty list of numbers"),
    (deep({"sweep": dict(SWEEP, scales=[math.nan])}),
     "sweep.scales must hold finite numbers"),
]


@pytest.mark.parametrize("doc, message", PINNED_MESSAGES,
                         ids=[m for _, m in PINNED_MESSAGES])
def test_config_error_message_pinned(doc, message):
    with pytest.raises(sr.ConfigError) as info:
        config_from_dict(doc)
    assert str(info.value) == message


class TestRoundtripHarness:
    def test_linear_roundtrip_error_small(self):
        cfg = config_from_dict(deep({"grid.n": 256, "grid.r": 1.0}))
        result = sr.roundtrip(cfg)
        assert result.report.converged
        assert result.failure_stage is None
        assert result.error_e0 <= 1e-6
        # an integral observation is extrapolated from a grid of 2x
        assert result.observation_nodes == 2 * 256

    def test_zero_initial_state(self):
        cfg = config_from_dict(deep({"u0.amplitude": 0.0}))
        result = sr.roundtrip(cfg)
        assert np.all(result.observed_M == 0.0)
        assert np.all(result.u0_recovered == 0.0)
        assert result.error_e0 == 0.0

    def test_roundtrip_e100_and_e200(self):
        for problem in ("E100", "E200"):
            b = 0.5 if problem == "E100" else {"type": "constant", "value": 1.0}
            cfg = config_from_dict(deep({
                "condition": {"problem": problem, "b": b,
                              "M": {"type": "from-u0"}},
                "grid.r": 1.0,
            }))
            result = sr.roundtrip(cfg)
            assert result.report.converged
            assert result.error_e0 <= 1e-5
            # E100 observes u(T) alone, on a grid of 4x
            refinement = 4 if problem == "E100" else 2
            assert result.observation_nodes == refinement * 64

    def test_roundtrip_fourth_order_memory_kernel(self):
        cfg = config_from_dict({
            "operator": {"family": "pinned4", "modes": 6, "d1": 1.0,
                         "d2": 0.5},
            "condition": {"problem": "E200",
                          "b": {"type": "poly", "coeffs": [1.0, 0.5]},
                          "M": {"type": "from-u0"}},
            "u0": {"type": "gauss-bump", "center": 1.5, "width": 0.5,
                   "amplitude": 0.05},
            "nonlinearity": {"type": "memory", "c": 0.5, "lambda": -0.25,
                             "ell": 1.0},
            "grid": {"T": 0.5, "n": 64, "r": 1.0},
            "solver": {"theta": 0.2},
        })
        result = sr.roundtrip(cfg)
        assert result.report.converged
        assert result.error_e0 <= 1e-5


class TestSynthesizedObservation:
    """The extrapolated product rule of ``harness._integral_weights``."""

    FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    WEIGHTS = {
        "poly": sr.WeightFunction.poly([1.0, -0.5, 0.25]),
        # knots off every node, one before 0 and one past T
        "table": sr.WeightFunction.table([-0.1, 0.13, 0.37, 0.71, 1.2],
                                         [1.0, 0.6, 0.9, 0.2, 0.5]),
    }

    @staticmethod
    def smooth(t):
        return np.exp(-2.0 * t) * np.cos(3.0 * t) + 0.5 * np.sin(5.0 * t)

    def exact(self, b):
        """int_0^1 b u dt for ``smooth`` u, at 30 digits."""
        edges, coeffs = b.pieces(1.0)
        with mp.workdps(30):
            pieces = [mp.quad(lambda t, p=p: mp.polyval(
                [mp.mpf(float(x)) for x in coeffs[p][::-1]],
                t - mp.mpf(float(edges[p])))
                * (mp.exp(-2 * t) * mp.cos(3 * t) + mp.sin(5 * t) / 2),
                [mp.mpf(float(edges[p])), mp.mpf(float(edges[p + 1]))])
                for p in range(len(coeffs))]
            return float(mp.fsum(pieces))

    @pytest.mark.parametrize("r", [1.0, 4.0])
    @pytest.mark.parametrize("kind", ["poly", "table"])
    def test_observed_order(self, kind, r):
        b = self.WEIGHTS[kind]
        want = self.exact(b)
        ns = (32, 64, 128, 256)
        errors = []
        for n in ns:
            nodes = sr.make_graded_grid(1.0, n, r).nodes
            u = self.smooth(nodes)
            errors.append(abs(harness._integral_weights(nodes, b) @ u - want))
            # the subgrid's weights, derived from the grid's, are the
            # product rule's on the subgrid
            w = _hat_weights(nodes, b)
            sub = sr.Trajectory(sr.TimeGrid(nodes[::2]), u[::2, None])
            coarse = harness._coarse_weights(nodes, w)
            assert (abs(coarse @ u[::2] - sr.observe(sub, 0.0, b)[0])
                    <= 4 * np.finfo(float).eps * np.abs(coarse).sum())
        if kind == "poly":
            # b smooth: the h**2 term cancels, each halving gains order 3.5
            assert all(errors[i] >= 11.3 * errors[i + 1] for i in range(3))
        else:
            # a knot inside a step leaves an h**4 term whose factor moves
            # with the knot's place in its step, so single halvings gain
            # 4x to 60x: the error times n**4 stays bounded instead
            scaled = [e * n**4 for e, n in zip(errors, ns)]
            assert max(scaled[2:]) <= 2.0 * max(scaled[:2])

    @pytest.mark.parametrize("name", ["psi-quadrature-poly",
                                      "psi-quadrature-table",
                                      "threshold-sweep"])
    def test_fixture_observation_error(self, name):
        cfg = sr.parse_config(self.FIXTURES / f"{name}.json")
        op, f = cfg.build_operator(), cfg.build_nonlinearity()
        u0 = cfg.resolve_u0(op)
        c, a, b = cfg.build_condition(np.zeros(op.n_modes)).coupling
        M, grid = harness.synthesize_observation(cfg, op, f, u0)
        n, T, r = cfg.grid.n, cfg.grid.T, cfg.grid.r
        assert grid.n_steps == 2 * n

        def solve(k):
            return sr.forward_solve(op, u0, f, sr.make_graded_grid(T, k * n, r))

        ref_u = solve(32)
        ref = c * u0 + (a * ref_u.coeffs[-1]
                        + harness._integral_weights(ref_u.grid.nodes, b)
                        @ ref_u.coeffs)
        old_u = solve(4)
        old = c * u0 + (a * old_u.coeffs[-1] + trapezoid(old_u, b))
        error = np.linalg.norm(M - ref)
        assert 20.0 * error <= np.linalg.norm(old - ref)
        # the observation's error stays well below the recovery's own
        report = sr.picard_recover(
            op, cfg.build_condition(ref), f, cfg.build_grid(),
            cfg.build_norm_spec(op), tol=cfg.solver.tol,
            max_iter=cfg.solver.max_iter)
        assert report.converged
        assert error <= 0.25 * np.linalg.norm(report.u0_recovered - u0)

    def test_final_state_observation_unchanged(self):
        # u(T) alone (E100): c*u0 + a*u(T) from a grid of 4x, bit for bit
        cfg = sr.parse_config(self.FIXTURES / "memory-forward.json")
        op, f = cfg.build_operator(), cfg.build_nonlinearity()
        u0 = cfg.resolve_u0(op)
        c, a, b = cfg.build_condition(np.zeros(op.n_modes)).coupling
        M, grid = harness.synthesize_observation(cfg, op, f, u0)
        u = sr.forward_solve(op, u0, f, sr.make_graded_grid(
            cfg.grid.T, 4 * cfg.grid.n, cfg.grid.r))
        assert grid.n_steps == 4 * cfg.grid.n
        assert M.tobytes() == (c * u0 + a * u.coeffs[-1]).tobytes()


class TestSweep:
    def test_rows_and_zero_scale(self):
        cfg = config_from_dict(deep({
            "nonlinearity": {"type": "power", "kappa": 0.25, "ell": 1.0},
            "u0.amplitude": 0.05,
            "grid": {"T": 0.5, "n": 48},
            "sweep": {"scales": [0.0, 0.5, 1.0]},
        }))
        rows, estimate = sweep_threshold(cfg)
        assert len(rows) == 3
        assert rows[0].scale == 0.0
        assert rows[0].converged
        assert rows[0].sigma_T0_norm == 0.0
        assert all(row.status == "ok" for row in rows)
        assert estimate.m_T > 0

    def test_rows_below_threshold_converge(self):
        # the threshold_m column is the certified m_T of the closed-form
        # growth bound, and every row whose data lies below it converges
        cfg = config_from_dict(deep({
            "nonlinearity": {"type": "power", "kappa": 0.25, "ell": 1.0},
            "u0.amplitude": 0.05,
            "grid": {"T": 0.5, "n": 32},
            "sweep": {"scales": [0.0, 0.5, 1.0, 4.0, 16.0, 64.0]},
        }))
        rows, estimate = sweep_threshold(cfg)
        op = cfg.build_operator()
        c_bar = sr.check_growth_condition(cfg.build_nonlinearity(), op,
                                          cfg.build_norm_spec(op))
        assert estimate.c_hat == c_bar > 0.0
        assert all(row.threshold_m == estimate.m_T for row in rows)
        below = [row for row in rows if row.sigma_T0_norm <= estimate.m_T]
        assert len(below) >= 3
        assert all(row.converged for row in below)

    def test_prefix_monotonicity_reported(self):
        # convergence flags should form a prefix of the ascending scale grid
        # in most randomized instances; reported, not asserted as a guarantee
        rng = np.random.default_rng(13)
        prefix_ok = 0
        trials = 10
        for _ in range(trials):
            cfg = config_from_dict(deep({
                "operator.modes": int(rng.integers(3, 7)),
                "nonlinearity": {"type": "power",
                                 "kappa": float(rng.uniform(0.5, 2.0)),
                                 "ell": 1.0},
                "u0.amplitude": float(rng.uniform(0.2, 0.8)),
                "grid": {"T": 1.0, "n": 32},
                "sweep": {"scales": [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]},
                "seed": int(rng.integers(10**6)),
            }))
            rows, _ = sweep_threshold(cfg)
            flags = [row.converged for row in rows]
            tail = flags[flags.index(False):] if False in flags else []
            if not any(tail):
                prefix_ok += 1
        rate = prefix_ok / trials
        print(f"prefix-monotone convergence rate: {rate:.0%}")
        assert rate >= 0.8

    def test_plan_built_once_per_sweep(self, monkeypatch):
        # only M changes between rows: one plan, and with it the one march
        # of the psi weights and the denominators, serves the whole sweep
        calls = {}

        def count(owner, name):
            method = getattr(owner, name)

            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return method(*args)
            monkeypatch.setattr(owner, name, counted)

        count(harness, "build_plan")
        count(recover, "_plan_weights")
        count(recover, "_weight_march")
        cfg = config_from_dict(deep({
            "nonlinearity": {"type": "power", "kappa": 0.25, "ell": 1.0},
            "u0.amplitude": 0.05,
            "grid": {"T": 0.5, "n": 32},
            "sweep": {"scales": [0.0, 0.5, 1.0, 2.0]},
        }))
        rows, _ = sweep_threshold(cfg)
        assert [row.status for row in rows] == ["ok"] * 4
        assert calls == {"build_plan": 1, "_plan_weights": 1,
                         "_weight_march": 1}

    def test_ill_posed_fails_every_row(self):
        # an ill-posed problem has no plan: each row records the error and
        # the sweep goes on
        rows, _ = sweep_threshold(config_from_dict(deep({**ILL_POSED,
                                                         "sweep": SWEEP})))
        assert [row.status for row in rows] == (
            ["error:IllPosedModeError"] * len(SWEEP["scales"]))
        assert not any(row.converged for row in rows)

    def test_memory_kernel_rejected_before_synthesis(self, tmp_path,
                                                    capsys, monkeypatch):
        # the certified threshold bounds a pointwise growth constant, so a
        # memory kernel fails before the observation is synthesized
        def no_synthesis(*args):
            raise AssertionError("the observation was synthesized")

        monkeypatch.setattr(harness, "resolve_M", no_synthesis)
        data = deep({"nonlinearity": MEMORY, "sweep": SWEEP})
        message = "sweep needs a 'zero' or 'power' nonlinearity, not 'memory'"
        with pytest.raises(sr.ConfigError) as info:
            sweep_threshold(config_from_dict(data))
        assert str(info.value) == message
        assert main(["sweep", "--config", write_cfg(tmp_path, data),
                     "--quiet"]) == 4
        assert message in capsys.readouterr().err

    def test_missing_scales_rejected(self):
        cfg = config_from_dict(BASE)
        with pytest.raises(sr.ConfigError, match="sweep"):
            sweep_threshold(cfg)


class TestCli:
    def test_evolve_csv(self, tmp_path, capsys):
        path = write_cfg(tmp_path, deep({"grid.n": 8}))
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--config", path, "--out", str(out), "--quiet"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mode_1,mode_2,mode_3,mode_4"
        assert len(lines) == 10  # header + 9 nodes
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 1.0

    def test_recover_json_and_exit_zero(self, tmp_path):
        path = write_cfg(tmp_path, deep({"grid.n": 256, "grid.r": 1.0}))
        out = tmp_path / "report.json"
        code = main(["recover", "--config", path, "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["converged"] is True
        assert abs(payload["error_e0"]) < 1e-6

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, deep({"operator.family": "unknown"}))
        assert main(["recover", "--config", path]) == 4
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("update, message", [
        ({"condition.b": dict(TABLE, t=[0.5, 1.0])},
         "condition.b: table covers [0.5, 1.0], not [0, 1.0]"),
        ({"condition.b": dict(POLY, coeffs=[0.0, 1.0])},
         "condition.b: problem E requires b(0) != 0"),
        ({"operator.grid_size": 10**23},
         "operator.grid_size must be at most 16777216 for 4 modes"),
        ({"condition.b": dict(TABLE, t=[0.0, 1e-310, 1.0], b=[1.0, 2.0, 1.0])},
         "condition.b: table slope on [0.0, 1e-310] is not finite"),
    ], ids=["table-short", "e-weight-zero-at-0", "grid-size-huge",
            "table-slope-overflow"])
    def test_cross_section_error_exit_code(self, tmp_path, capsys, update,
                                           message):
        # each of these once ended in a failure of the recovery itself
        path = write_cfg(tmp_path, deep(update))
        assert main(["recover", "--config", path, "--quiet"]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("update, message", [
        ({"operator.d": 0}, "operator: diffusivity must be positive"),
        ({"operator.family": "neumann2", "operator.c0": 0},
         "operator: Neumann with zero reaction has a zero eigenvalue"),
        ({"operator.grid_size": 3},
         "operator: grid_size must exceed n_modes"),
        ({"operator.modes": 0},
         "operator: n_modes must be a positive integer"),
    ], ids=["d-zero", "neumann-c0-zero", "grid-size-3", "modes-zero"])
    def test_operator_error_exit_code(self, tmp_path, capsys, update,
                                      message):
        # values the operator's constructor rejects are config errors
        path = write_cfg(tmp_path, deep(update))
        assert main(["recover", "--config", path, "--quiet"]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("update", [
        {"solver.tol": math.inf},
        {"condition.b": {"type": "constant", "value": math.nan}},
    ], ids=["tol-infinity", "weight-nan"])
    def test_nonfinite_number_exit_code(self, tmp_path, capsys, update):
        # json.load accepts Infinity and NaN; the schema must not
        path = write_cfg(tmp_path, deep(update))
        assert main(["recover", "--config", path, "--quiet"]) == 4
        assert "must be finite" in capsys.readouterr().err

    def test_spectral_violation_exit_code(self, tmp_path):
        path = write_cfg(tmp_path, deep(ILL_POSED))
        out = tmp_path / "margins.csv"
        code = main(["check-spectral", "--config", path, "--out", str(out),
                     "--quiet"])
        assert code == 2
        rows = out.read_text().splitlines()
        assert rows[0] == "mode,eigenvalue,margin,scale,ok"
        first = rows[1].split(",")
        assert float(first[2]) <= 1e-8
        assert first[4] == "false"

    def test_check_spectral_forms_no_observation(self, tmp_path,
                                                 monkeypatch):
        # the margins do not depend on M: a config giving M from u0 gets
        # the CSV of any literal M without a forward solve
        calls = []
        solve = harness.forward_solve
        monkeypatch.setattr(harness, "forward_solve",
                            lambda *args: calls.append(1) or solve(*args))
        csv = {}
        for name, update in (("from-u0", {}),
                             ("literal", {"condition.M": M_LITERAL})):
            out = tmp_path / f"{name}.csv"
            path = write_cfg(tmp_path, deep(update), f"{name}.json")
            assert main(["check-spectral", "--config", path, "--out",
                         str(out), "--quiet"]) == 0
            csv[name] = out.read_bytes()
        assert calls == []
        assert csv["from-u0"] == csv["literal"]

    @pytest.mark.parametrize("update, message", [
        ({"condition.M": dict(M_LITERAL, values=[1.0, 2.0])},
         "condition.M.values has length 2, expected 4"),
        ({"u0": ...}, "this run needs a 'u0' block in the config"),
    ], ids=["literal-m-length", "no-u0"])
    def test_check_spectral_config_errors(self, tmp_path, capsys, update,
                                          message):
        path = write_cfg(tmp_path, deep(update))
        assert main(["check-spectral", "--config", path, "--quiet"]) == 4
        assert message in capsys.readouterr().err

    def test_sweep_row_overflow_is_an_error_row(self, tmp_path, capsys):
        # 1e308 * 10 overflows: that row fails, the sweep does not, and no
        # RuntimeWarning (an error under pytest here) escapes
        data = deep({"condition.M": dict(M_LITERAL, values=[10.0, 0, 0, 0]),
                     "u0": ..., "sweep": {"scales": [0.0, 1e308]}})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_cfg(tmp_path, data),
                     "--out", str(out), "--quiet"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].endswith(",ok")
        assert rows[2].startswith("1,1e+308,false,0,")
        assert rows[2].endswith(",error:InvalidParameterError")
        assert capsys.readouterr().err == ""

    def test_spectral_violation_recover_report(self, tmp_path, capsys):
        # recover writes the margins with converged = false and exits 2
        path = write_cfg(tmp_path, deep(ILL_POSED))
        out = tmp_path / "report.json"
        assert main(["recover", "--config", path, "--out", str(out)]) == 2
        cfg = config_from_dict(deep(ILL_POSED))
        spectral = sr.check_spectral_condition(
            cfg.build_operator(), sr.ConditionE100(math.exp(1.0), np.zeros(4)),
            cfg.build_grid())
        want = {"converged": False, "spectral": config.to_jsonable(spectral)}
        assert out.read_text() == json.dumps(want, indent=2,
                                             sort_keys=True) + "\n"
        assert want["spectral"]["failing_modes"] == [1]
        assert want["spectral"]["margins"][0] == 0.0
        assert capsys.readouterr().err == (
            "spectral condition violated at modes [1]\n")

    def test_no_convergence_exit_code(self, tmp_path):
        # literal observation data far above the smallness regime makes the
        # fixed point iteration run away; the CLI must report, not crash
        data = deep({
            "condition.M": {"type": "coefficients",
                            "values": [50.0, 20.0, 10.0, 5.0]},
            "u0": ...,
            "nonlinearity": {"type": "power", "kappa": 5.0, "ell": 1.0},
            "grid": {"T": 1.0, "n": 32},
            "solver": {"theta": 0.25, "max_iter": 40},
        })
        path = write_cfg(tmp_path, data)
        code = main(["recover", "--config", path, "--out",
                     str(tmp_path / "r.json"), "--quiet"])
        assert code == 3

    def test_roundtrip_command(self, tmp_path):
        path = write_cfg(tmp_path, deep({"grid.n": 32}))
        out = tmp_path / "rt.json"
        assert main(["roundtrip", "--config", path, "--out", str(out),
                     "--quiet"]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["converged"] is True

    def test_sweep_deterministic_output(self, tmp_path):
        data = deep({
            "nonlinearity": {"type": "power", "kappa": 0.25, "ell": 1.0},
            "u0.amplitude": 0.05,
            "grid": {"T": 0.5, "n": 32},
            "sweep": {"scales": [0.0, 1.0]},
        })
        path = write_cfg(tmp_path, data)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(["sweep", "--config", path, "--out", str(out1),
                     "--quiet"]) == 0
        assert main(["sweep", "--config", path, "--out", str(out2),
                     "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ("index,scale,converged,iterations,final_ratio,"
                          "sigma_T0_norm,threshold_m,status")
