"""Config parsing, harness experiments, and the command-line surface."""

import json
import math

import numpy as np
import pytest

import specrec as sr
from specrec import recover
from specrec.cli import main
from specrec.config import config_from_dict
from specrec.harness import sweep_threshold

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

    def test_gauss_bump_profile(self):
        data = deep({"u0": {"type": "gauss-bump", "center": math.pi / 2,
                            "width": 0.4, "amplitude": 0.5}})
        cfg = config_from_dict(data)
        op = cfg.build_operator()
        u0 = cfg.resolve_u0(op)
        # symmetric bump loads odd sine modes only
        assert abs(u0[0]) > 1e-3
        assert abs(u0[1]) < 1e-12

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


class TestRoundtripHarness:
    def test_linear_roundtrip_error_small(self):
        cfg = config_from_dict(deep({"grid.n": 256, "grid.r": 1.0}))
        result = sr.roundtrip(cfg)
        assert result.report.converged
        assert result.failure_stage is None
        assert result.error_e0 <= 1e-6
        assert result.observation_nodes == 4 * 256

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
        # only M changes between rows: the psi weights and the denominators'
        # mode weights are built once for the whole sweep
        calls = {"psi": 0, "mode_weights": 0}
        psi_weights, mode_weights = recover._psi_weights, recover.mode_weights

        def counting_psi(*args):
            calls["psi"] += 1
            return psi_weights(*args)

        def counting_weights(*args):
            calls["mode_weights"] += 1
            return mode_weights(*args)

        monkeypatch.setattr(recover, "_psi_weights", counting_psi)
        monkeypatch.setattr(recover, "mode_weights", counting_weights)
        cfg = config_from_dict(deep({
            "nonlinearity": {"type": "power", "kappa": 0.25, "ell": 1.0},
            "u0.amplitude": 0.05,
            "grid": {"T": 0.5, "n": 32},
            "sweep": {"scales": [0.0, 0.5, 1.0, 2.0]},
        }))
        rows, _ = sweep_threshold(cfg)
        assert [row.status for row in rows] == ["ok"] * 4
        assert calls == {"psi": 1, "mode_weights": 1}

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
        data = deep({
            "condition": {"problem": "E100",
                          "b": math.exp(1.0),  # hits 1 - b e^{T lam_1} = 0
                          "M": {"type": "from-u0"}},
            "operator": {"family": "dirichlet2", "modes": 4},
        })
        path = write_cfg(tmp_path, data)
        out = tmp_path / "margins.csv"
        code = main(["check-spectral", "--config", path, "--out", str(out),
                     "--quiet"])
        assert code == 2
        rows = out.read_text().splitlines()
        assert rows[0] == "mode,eigenvalue,margin,scale,ok"
        first = rows[1].split(",")
        assert float(first[2]) <= 1e-8
        assert first[4] == "false"

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
