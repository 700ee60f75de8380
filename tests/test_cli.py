import copy
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hyperfill as hf
import hyperfill.cli
from hyperfill.verify import random_tent_functions

CUBE8 = {"kind": "cube", "dim": 1, "depth": 8}


def run_cli(*argv, env_extra=None, cwd=None, timeout=None):
    env = {k: v for k, v in os.environ.items() if k != "HYPERFILL_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hyperfill", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=timeout)


def write_cfg(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert hf.__version__ in proc.stdout


def test_space_build_and_audit(tmp_path):
    desc = write_cfg(tmp_path / "space.json", CUBE8)
    out = tmp_path / "built.json"
    proc = run_cli("space", "build", desc, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    built = json.loads(out.read_text())
    assert built["declared_Q"] == 1
    assert built["descriptor"]["kind"] == "pointset"
    assert built["n_points"] == 256

    report = tmp_path / "audit.json"
    proc = run_cli("space", "audit", desc, "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    audit = json.loads(report.read_text())
    assert audit["ahlfors"]["Q_hat"] == pytest.approx(1.0, abs=0.05)
    assert 0.0 < audit["doubling_worst"] <= 2.0


def test_filling_build_then_audit(tmp_path):
    cfg = write_cfg(tmp_path / "f.json",
                    {"space": CUBE8, "level_lo": 0, "level_hi": 5})
    out = tmp_path / "filling.json"
    proc = run_cli("filling", "build", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr

    # rebuilds are byte-identical
    out2 = tmp_path / "filling2.json"
    run_cli("filling", "build", "--config", cfg, "--out", str(out2))
    assert out.read_bytes() == out2.read_bytes()

    report = tmp_path / "faudit.json"
    proc = run_cli("filling", "audit", "--filling", str(out),
                   "--report", str(report))
    assert proc.returncode == 0, proc.stderr
    audit = json.loads(report.read_text())
    assert audit["ok"] is True
    assert audit["flavor"] == "plain"


def test_calculus_check_telescoping(tmp_path):
    cfg = write_cfg(tmp_path / "f.json", {"space": CUBE8, "level_hi": 5})
    out = tmp_path / "tele.json"
    proc = run_cli("calculus", "check-telescoping", "--config", cfg,
                   "--trials", "3", "--seed", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["tolerance"] == 1e-12
    assert all(v <= 1e-12 for v in payload["max_relative_error"].values())


NORM_CFG = {"space": CUBE8, "level_hi": 5,
            "params": {"s": 0.5, "p": 2.0, "q": 2.0, "kind": "besov"},
            "function": {"kind": "random_tents"}}


def test_norm_eval_frozen_value(tmp_path):
    cfg = write_cfg(tmp_path / "n.json", NORM_CFG)
    out = tmp_path / "norm.json"
    proc = run_cli("norm", "eval", "--config", cfg, "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(123.92383971021873, rel=1e-12)
    assert payload["seed"] == 5
    assert payload["backend"] == "pure"


def test_norm_eval_half_ball_frozen_value(tmp_path):
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, variant="half_ball"))
    out = tmp_path / "norm.json"
    proc = run_cli("norm", "eval", "--config", cfg, "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["value"] == 49.831736644494683


@pytest.mark.parametrize("extra, want", [
    ({}, 42.13835034881114),
    ({"params": dict(NORM_CFG["params"], kind="triebel")}, 7.322110411927257),
    ({"variant": "half_ball"}, 18.901802813627558),
])
def test_norm_eval_window_frozen_value(tmp_path, extra, want):
    cfg = write_cfg(tmp_path / "n.json",
                    dict(NORM_CFG, window=[1, 2], **extra))
    out = tmp_path / "norm.json"
    proc = run_cli("norm", "eval", "--config", cfg, "--seed", "5",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["value"] == want


@pytest.mark.parametrize("kind", ["nonhom_besov", "nonhom_triebel",
                                  "hajlasz"])
def test_norm_eval_refuses_a_window_the_kind_cannot_use(tmp_path, capsys,
                                                        kind):
    cfg = write_cfg(tmp_path / "n.json", dict(
        NORM_CFG, space={"kind": "cube", "dim": 1, "depth": 4}, level_hi=2,
        window=[1, 2], params=dict(NORM_CFG["params"], kind=kind)))
    out = tmp_path / "norm.json"
    assert hf.cli.main(["norm", "eval", "--config", cfg,
                        "--out", str(out)]) == 2
    assert "window" in capsys.readouterr().err
    assert not out.exists()


def test_norm_eval_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path / "n.json", NORM_CFG)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("norm", "eval", "--config", cfg, "--seed", "5", "--out", str(a))
    run_cli("norm", "eval", "--config", cfg, "--seed", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_precedence(tmp_path):
    flag_only = tmp_path / "flag.json"
    cfg = write_cfg(tmp_path / "n.json", NORM_CFG)
    run_cli("norm", "eval", "--config", cfg, "--seed", "5",
            "--out", str(flag_only))

    # a config seed silently outranks the flag
    cfg_seeded = write_cfg(tmp_path / "ns.json",
                           dict(NORM_CFG, seed=5))
    from_cfg = tmp_path / "cfg.json"
    run_cli("norm", "eval", "--config", cfg_seeded, "--seed", "99",
            "--out", str(from_cfg))
    assert flag_only.read_bytes() == from_cfg.read_bytes()

    # and the environment outranks both
    from_env = tmp_path / "env.json"
    run_cli("norm", "eval", "--config", cfg_seeded, "--seed", "99",
            "--out", str(from_env), env_extra={"HYPERFILL_SEED": "9"})
    assert from_env.read_bytes() != flag_only.read_bytes()
    assert json.loads(from_env.read_text())["seed"] == 9


def test_bad_env_seed_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path / "n.json", NORM_CFG)
    proc = run_cli("norm", "eval", "--config", cfg,
                   env_extra={"HYPERFILL_SEED": "pi"})
    assert proc.returncode == 2
    assert "HYPERFILL_SEED" in proc.stderr


def test_constant_function_norm_is_zero(tmp_path):
    cfg = write_cfg(tmp_path / "n.json",
                    dict(NORM_CFG,
                         function={"kind": "constant", "value": 4.0}))
    out = tmp_path / "norm.json"
    proc = run_cli("norm", "eval", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["value"] == 0.0


def test_hajlasz_norm_through_cli(tmp_path):
    cfg = write_cfg(tmp_path / "h.json",
                    {"space": {"kind": "cube", "dim": 1, "depth": 4},
                     "level_hi": 2,
                     "params": {"s": 1.0, "p": 2.0, "kind": "hajlasz"},
                     "function": {"kind": "random_tents"}})
    out = tmp_path / "h_out.json"
    proc = run_cli("norm", "eval", "--config", cfg, "--seed", "2",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["gap"] <= 1e-6
    assert payload["value"] > 0.0


def test_malformed_config_exits_2_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "never.json"
    proc = run_cli("norm", "eval", "--config", str(bad), "--out", str(out))
    assert proc.returncode == 2
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    out = tmp_path / "never.json"
    proc = run_cli("norm", "eval", "--config", str(tmp_path / "gone.json"),
                   "--out", str(out))
    assert proc.returncode == 2
    assert "gone.json" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_malformed_space_field_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "n.json",
                    dict(NORM_CFG, space=dict(CUBE8, dim="x")))
    proc = run_cli("norm", "eval", "--config", cfg)
    assert proc.returncode == 2
    assert "space descriptor" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["seed", "level_hi"])
def test_non_integer_config_value_exits_2(tmp_path, key):
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, **{key: "abc"}))
    proc = run_cli("norm", "eval", "--config", cfg)
    assert proc.returncode == 2
    assert key in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("patch, field", [
    ({"level_hi": 3.7}, "level_hi"),
    ({"level_hi": True}, "level_hi"),
    ({"seed": True}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"window": [0.5, 2]}, "window"),
])
def test_integer_config_field_refuses_a_float_a_bool_or_a_string(
        tmp_path, capsys, monkeypatch, patch, field):
    # each of these once ran, cast to 3, 1, 1, 7 and (0, 2)
    monkeypatch.delenv("HYPERFILL_SEED", raising=False)
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, **patch))
    out = tmp_path / "norm.json"
    assert hf.cli.main(["norm", "eval", "--config", cfg,
                        "--out", str(out)]) == 2
    assert "%s must be an integer" % field in capsys.readouterr().err
    assert not out.exists()


# the verdicts take each cell's first and last ok row as its coarse and
# fine one, so [6, 5] once read unstable and [6, 6] stable from one level
@pytest.mark.parametrize("resolutions, code", [
    ([5, 6], 0), ([6.5], 2), ([True], 2), (5, 2), ([6, 5], 2), ([6, 6], 2)])
def test_theorem_suite_takes_strictly_ascending_integer_resolutions(
        tmp_path, capsys, resolutions, code):
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 9},
        "subset": {"cantor_depth": 5}, "theorem": "besov",
        "resolutions": resolutions, "trials": 2,
        "grid": {"s": [0.5], "p": [2.0], "q": [2.0]}})
    out = tmp_path / "r.json"
    assert hf.cli.main(["verify", "audit_theorem_suite", "--config", cfg,
                        "--out", str(out)]) == code
    if code:
        assert "resolutions must" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["verdicts"] == {
            "roundtrip_stable": True, "ratios_stable": True}


def test_unknown_config_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, typo=1))
    proc = run_cli("norm", "eval", "--config", cfg)
    assert proc.returncode == 2
    assert "typo" in proc.stderr


def test_missing_required_key_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "n.json",
                    {k: v for k, v in NORM_CFG.items() if k != "params"})
    proc = run_cli("norm", "eval", "--config", cfg)
    assert proc.returncode == 2
    assert "params" in proc.stderr


TRACE_CFG = {"space": {"kind": "cube", "dim": 1, "depth": 10},
             "subset": {"cantor_depth": 6},
             "level_hi": 6,
             "params": {"s": 0.5, "p": 2.0, "q": 2.0, "kind": "besov"},
             "theorem": "besov",
             "direction": "roundtrip",
             "function": {"kind": "random_tents"}}


@pytest.mark.parametrize("command, base, n_tents", [
    ("norm", NORM_CFG, -1),
    ("norm", NORM_CFG, 1e10),
    ("norm", NORM_CFG, 1.7976931348623157e308),
    ("trace", TRACE_CFG, 1.7976931348623157e308),
])
def test_tent_count_above_the_cap_exits_2(tmp_path, command, base, n_tents):
    # one pass over the cloud per tent: an uncapped count runs for ever
    cfg = write_cfg(tmp_path / "c.json", dict(
        base, function={"kind": "random_tents", "n_tents": n_tents}))
    action = "eval" if command == "norm" else "run"
    proc = run_cli(command, action, "--config", cfg, timeout=60)
    assert proc.returncode == 2
    assert "n_tents" in proc.stderr and "Traceback" not in proc.stderr


def test_trace_roundtrip_frozen(tmp_path):
    cfg = write_cfg(tmp_path / "t.json", TRACE_CFG)
    out = tmp_path / "tr.json"
    proc = run_cli("trace", "run", "--config", cfg, "--seed", "7",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["roundtrip_sup_error"] == pytest.approx(
        0.6315832184681704, rel=1e-9)
    assert payload["extend"]["restriction_sup_error"] > 0.0
    assert payload["trace"]["operator_ratio"] > 0.0


@pytest.mark.parametrize("direction", ["trace", "extend", "roundtrip"])
def test_trace_run_with_half_ball_variant(tmp_path, direction):
    cfg = write_cfg(tmp_path / "t.json",
                    dict(TRACE_CFG, direction=direction, variant="half_ball"))
    out = tmp_path / "tr.json"
    proc = run_cli("trace", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    side = payload if direction != "roundtrip" else payload["trace"]
    assert side["operator_ratio"] > 0.0


def _bottom_edge_roundtrip(tmp_path, metric, level_lo):
    bottom = [32 * k for k in range(32)]
    cfg = write_cfg(tmp_path / ("t%s%d.json" % (metric, level_lo)), dict(
        TRACE_CFG, space={"kind": "cube", "dim": 2, "depth": 5,
                          "metric": metric},
        subset={"indices": bottom, "lambda": 1.0}, level_lo=level_lo,
        level_hi=3, params={"s": 0.5, "p": 4.0, "q": 4.0, "kind": "besov"}))
    out = tmp_path / ("tr%s%d.json" % (metric, level_lo))
    proc = run_cli("trace", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_trace_run_below_level_zero(tmp_path):
    # under the sup metric the 2-D cube has diameter 1, so its root may sit
    # at level 0 or -1; the extra coarse level must not move the roundtrip
    at_zero = _bottom_edge_roundtrip(tmp_path, "sup", 0)
    below = _bottom_edge_roundtrip(tmp_path, "sup", -1)
    for get in (lambda p: p["roundtrip_sup_error"],
                lambda p: p["extend"]["restriction_sup_error"]):
        assert get(below) == pytest.approx(get(at_zero), rel=1e-12)
    # the Euclidean cube has diameter sqrt(2) and needs the root at -1
    euclid = _bottom_edge_roundtrip(tmp_path, "euclidean", -1)
    assert len(euclid["trace"]["samples"]) == 32
    assert euclid["trace"]["operator_ratio"] > 0.0
    assert euclid["roundtrip_sup_error"] == pytest.approx(
        at_zero["roundtrip_sup_error"], rel=0.05)


def test_trace_run_extends_a_constant_with_zero_norms(tmp_path):
    # a constant extends to a constant: both norms are exactly 0, not
    # rounding noise over 0, an infinite ratio canonical JSON refuses
    cfg = write_cfg(tmp_path / "c.json", dict(
        TRACE_CFG, space={"kind": "cube", "dim": 2, "depth": 5,
                          "metric": "euclidean"},
        subset={"indices": [32 * k for k in range(32)], "lambda": 1.0},
        level_lo=-1, level_hi=2, direction="extend",
        params={"s": 0.9, "p": 4.0, "q": 4.0, "kind": "besov"},
        function={"kind": "constant", "value": 0.3}))
    out = tmp_path / "c_out.json"
    assert hf.cli.main(["trace", "run", "--config", cfg,
                        "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["target_norm"] == payload["source_norm"] == 0
    assert payload["operator_ratio"] == 0


def test_inadmissible_exponents_exit_3(tmp_path):
    cfg = write_cfg(tmp_path / "t.json",
                    dict(TRACE_CFG,
                         params={"s": 0.5, "p": 0.8, "q": 2.0,
                                 "kind": "besov"}))
    out = tmp_path / "never.json"
    proc = run_cli("trace", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 3
    assert "inadmissible" in proc.stderr
    assert not out.exists()


def test_sobolev_trace_direction_rejected(tmp_path):
    cfg = write_cfg(tmp_path / "t.json",
                    dict(TRACE_CFG, theorem="sobolev", direction="trace",
                         params={"s": 1.0, "p": 4.0, "kind": "besov"}))
    proc = run_cli("trace", "run", "--config", cfg)
    assert proc.returncode == 2
    assert "extension-only" in proc.stderr


def _trace_run(tmp_path, theorem, direction, kind, seed="7"):
    """(exit code, payload or None) of an in-process `trace run` over
    TRACE_CFG with the given pipeline and params kind."""
    cfg = write_cfg(tmp_path / "t.json", dict(
        TRACE_CFG, theorem=theorem, direction=direction,
        params=dict(TRACE_CFG["params"], kind=kind)))
    out = tmp_path / "t_out.json"
    code = hf.cli.main(["trace", "run", "--config", cfg, "--seed", seed,
                        "--out", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("theorem, direction, kind", [
    ("besov", "trace", "triebel"),
    ("besov", "trace", "hajlasz"),
    ("besov", "extend", "nonhom_triebel"),
    ("triebel", "trace", "nonhom_triebel"),
    ("triebel", "roundtrip", "triebel"),
])
def test_trace_run_labels_each_class_by_its_own_kind(tmp_path, capsys,
                                                     theorem, direction,
                                                     kind):
    # a kind the theorem does not take is refused, never relabelled or
    # silently replaced; the Triebel round trip's extension is a Besov
    # one and says so
    code, payload = _trace_run(tmp_path, theorem, direction, kind)
    if kind == theorem:
        assert code == 0
        assert payload["extend"]["source_params"]["kind"] == "besov"
        assert payload["trace"]["trace_params"]["kind"] == "besov"
    else:
        assert code == 2 and payload is None
        err = capsys.readouterr().err
        assert repr(kind) in err and "Traceback" not in err


@pytest.mark.parametrize("theorem, direction, kind, get, want", [
    ("triebel", "roundtrip", "triebel",
     lambda p: p["roundtrip_sup_error"], 0.6315832184681704),
    ("nonhom", "extend", "nonhom_besov",
     lambda p: p["restriction_sup_error"], 0.33707555254071186),
    ("nonhom", "trace", "nonhom_triebel",
     lambda p: p["trace_norm"], 32.00538059766902),
])
def test_trace_run_pipeline_frozen_values(tmp_path, theorem, direction, kind,
                                          get, want):
    code, payload = _trace_run(tmp_path, theorem, direction, kind)
    assert code == 0
    assert get(payload) == pytest.approx(want, rel=1e-9)


def test_sobolev_trace_run_reports_the_extension_certificate(tmp_path,
                                                             pair6):
    code, payload = _trace_run(tmp_path, "sobolev", "extend", "besov")
    assert code == 0
    f_sub = random_tent_functions(pair6.trace_space, 1,
                                  np.random.default_rng(7), n_tents=6)[0]
    cert = hf.extend_sobolev(pair6, f_sub, 2.0).certificate
    assert payload["certificate"] == {"K": cert.K, "norm": cert.norm,
                                      "pairs_checked": cert.pairs_checked}


def test_verify_writes_report_and_csv(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {"space": CUBE8, "level_hi": 5})
    out, csv = tmp_path / "v_out.json", tmp_path / "v.csv"
    proc = run_cli("verify", "audit_norm_variants", "--config", cfg,
                   "--seed", "3", "--out", str(out), "--csv", str(csv))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["experiment_id"] == "norm_variants"
    assert payload["passed"] is True
    assert payload["rng_seed"] == 3
    lines = csv.read_text().splitlines()
    assert lines[0] == "experiment_id,cell,metric,value"


@pytest.mark.parametrize("flag", ["--out", "--report", "--csv"])
def test_output_into_a_missing_directory_exits_2(tmp_path, capsys, flag):
    missing = tmp_path / "no_such_dir" / "x.out"
    desc = write_cfg(tmp_path / "space.json", CUBE8)
    if flag == "--report":
        argv = ["space", "audit", desc, "--report", str(missing)]
    else:
        cfg = write_cfg(tmp_path / "v.json",
                        {"space": CUBE8, "level_hi": 5, "trials": 2})
        argv = ["verify", "audit_norm_variants", "--config", cfg,
                flag, str(missing)]
    assert hf.cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert not missing.parent.exists()


def test_porosity_audit_reports_with_its_default_q_list(tmp_path):
    # the default q_list holds inf, which the report spells "inf"
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 10},
        "subset": {"cantor_depth": 6}, "level_hi": 6, "trials": 2})
    out = tmp_path / "r.json"
    assert hf.cli.main(["verify", "audit_porosity_qindependence",
                        "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["q_list"] == [0.8, 1, 2, "inf"]
    assert "full_qinf" in report["rows"][1]
    # the report's q_list is a valid config q_list
    again = tmp_path / "again.json"
    cfg2 = write_cfg(tmp_path / "v2.json", {
        **json.loads((tmp_path / "v.json").read_text()),
        "q_list": report["config"]["q_list"]})
    assert hf.cli.main(["verify", "audit_porosity_qindependence",
                        "--config", cfg2, "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("audit, params", [
    ("audit_norm_variants", {"s": 0.5, "p": "inf", "q": 2, "kind": "besov"}),
    ("audit_nonhom_split",
     {"s": 0.5, "p": 2, "q": "inf", "kind": "nonhom_besov"})])
def test_verify_report_writes_an_infinite_exponent_as_inf(tmp_path, audit,
                                                          params):
    # as in every other payload, and as the config spells it
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 6}, "level_hi": 4,
        "params": params, "trials": 2})
    out = tmp_path / "r.json"
    assert hf.cli.main(["verify", audit, "--config", cfg,
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["params"] == params


@pytest.mark.parametrize("grid", [
    {"s": [0.5], "p": [2.0], "q": ["inf"]},
    [{"s": 0.5, "p": 2.0, "q": "inf"}]])
def test_theorem_suite_report_writes_an_infinite_grid_exponent_as_inf(
        tmp_path, grid):
    # both grid forms read "inf", and the report writes it back that way
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 8},
        "subset": {"cantor_depth": 4}, "theorem": "besov",
        "resolutions": [4, 5], "trials": 1, "grid": grid})
    out = tmp_path / "r.json"
    assert hf.cli.main(["verify", "audit_theorem_suite", "--config", cfg,
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["grid"] == [
        {"s": 0.5, "p": 2.0, "q": "inf"}]


def test_failed_audit_exits_4_but_reports(tmp_path):
    # a five-level filling cannot push the approximation tail under the
    # default cut, so the audit fails; the report must still land on disk
    cfg = write_cfg(tmp_path / "v.json",
                    {"space": CUBE8, "level_hi": 5, "trials": 5})
    out = tmp_path / "v_out.json"
    proc = run_cli("verify", "audit_approx_density", "--config", cfg,
                   "--out", str(out))
    assert proc.returncode == 4
    assert "final_below_fraction" in proc.stderr
    payload = json.loads(out.read_text())
    assert payload["passed"] is False


def test_unknown_audit_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {"space": CUBE8, "level_hi": 5})
    proc = run_cli("verify", "audit_nope", "--config", cfg)
    assert proc.returncode == 2
    assert "audit_nope" in proc.stderr


@pytest.mark.parametrize("patch, field", [
    ({"params": {"s": "x", "p": 2.0, "q": 2.0, "kind": "besov"}}, "params.s"),
    ({"function": {"kind": "values", "values": ["a"]}}, "function.values"),
    # a bool or a number in a string is refused, not cast
    ({"params": {"s": True, "p": 2.0, "q": 2.0, "kind": "besov"}}, "params.s"),
    ({"params": {"s": "0.5", "p": 2.0, "q": 2.0, "kind": "besov"}},
     "params.s"),
    ({"function": {"kind": "values", "values": [True, False] * 128}},
     "function.values"),
])
def test_non_numeric_config_value_exits_2(tmp_path, patch, field):
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, **patch))
    proc = run_cli("norm", "eval", "--config", cfg)
    assert proc.returncode == 2
    assert field in proc.stderr and "Traceback" not in proc.stderr


_CUBE_PAIR = {"kind": "cube", "dim": 1, "depth": 6}


# Each descriptor scalar is read as a JSON integer or number: a float, a
# bool or a string in an integer field, a bool or a string in a number
# field, is refused, not cast.
@pytest.mark.parametrize("desc, field", [
    ({"kind": "cube", "dim": 1.9, "depth": True}, "dim"),
    ({"kind": "cube", "dim": 1, "depth": True}, "depth"),
    ({"kind": "ifs", "depth": 2.0, "maps": [
        {"ratio": 1 / 3, "offset": [0.0]}, {"ratio": 1 / 3, "offset": [2 / 3]}]},
     "depth"),
    ({"kind": "ifs", "depth": 2, "maps": [
        {"ratio": "0.3", "offset": [0.0]}, {"ratio": 1 / 3, "offset": [2 / 3]}]},
     "ratio"),
    ({"kind": "ifs", "depth": 2, "maps": [
        {"ratio": 1 / 3, "offset": [False]}, {"ratio": 1 / 3, "offset": [0.5]}]},
     "offset"),
    ({"kind": "ifs", "depth": 2, "maps": [
        {"ratio": 0.5, "offset": [0.0, 0.0], "rotation_deg": True},
        {"ratio": 0.5, "offset": [0.5, 0.0]}]}, "rotation_deg"),
    ({"kind": "ifs", "depth": 2, "maps": [
        {"ratio": 0.25, "offset": [0.0]}, {"ratio": 0.25, "offset": [0.25]},
        {"ratio": 0.25, "offset": [0.75]}],
      "subset": {"submaps": [0, 2.0]}}, "submaps"),
    ({"kind": "ifs", "depth": 2, "maps": [
        {"ratio": 0.25, "offset": [0.0]}, {"ratio": 0.25, "offset": [0.25]},
        {"ratio": 0.25, "offset": [0.75]}],
      "subset": {"submaps": [0, 2], "lambda": True}}, "lambda"),
    ({"kind": "pointset", "metric": "sup", "points": [[0.0], [1.0]],
      "weights": [1.0, 1.0], "resolution": "0.125", "declared_Q": 1.0,
      "declared_diam": 1.0}, "resolution"),
    ({"kind": "pointset", "metric": "sup", "points": [[0.0], [1.0]],
      "weights": [1.0, 1.0], "resolution": 0.125, "declared_Q": True,
      "declared_diam": 1.0}, "declared_Q"),
    ({"kind": "pointset", "metric": "sup", "points": [[0.0], [1.0]],
      "weights": [1.0, 1.0], "resolution": 0.125, "declared_Q": 1.0,
      "declared_diam": "1"}, "declared_diam"),
    (dict(_CUBE_PAIR, subset={"cantor_depth": 2.0}), "cantor_depth"),
    (dict(_CUBE_PAIR, subset={"indices": [0, 1], "lambda": "0.5"}),
     "lambda"),
])
def test_non_numeric_descriptor_field_exits_2(tmp_path, capsys, desc, field):
    path = write_cfg(tmp_path / "space.json", desc)
    out = tmp_path / "built.json"
    assert hf.cli.main(["space", "build", path, "--out", str(out)]) == 2
    assert "descriptor %s must be" % field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", [
    {"s": [True], "p": [2.0], "q": [2.0]},
    {"s": [0.5], "p": ["2"], "q": [2.0]},
    [{"s": 0.5, "p": 2.0, "q": False}],
    [{"s": "0.5", "p": 2.0, "q": 2.0}],
])
def test_non_numeric_grid_exponent_exits_2(tmp_path, capsys, grid):
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 8},
        "subset": {"cantor_depth": 4}, "theorem": "besov",
        "resolutions": [4, 5], "trials": 1, "grid": grid})
    assert hf.cli.main(["verify", "audit_theorem_suite", "--config", cfg,
                        "--out", str(tmp_path / "r.json")]) == 2
    assert "must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("params, function", [
    ({"s": 1.0, "p": "inf", "kind": "hajlasz"},
     {"kind": "values", "values": ["nan"] + [0.0] * 15}),
    ({"s": 0.5, "p": 2.0, "q": 2.0, "kind": "besov"},
     {"kind": "values", "values": ["nan"] + [0.0] * 15}),
    ({"s": 0.5, "p": 2.0, "q": 2.0, "kind": "triebel"},
     {"kind": "constant", "value": "inf"}),
])
def test_non_finite_samples_exit_2(tmp_path, capsys, params, function):
    cfg = write_cfg(tmp_path / "n.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 4}, "level_hi": 2,
        "params": params, "function": function})
    out = tmp_path / "n_out.json"
    assert hf.cli.main(["norm", "eval", "--config", cfg,
                        "--out", str(out)]) == 2
    assert "function samples must be finite" in capsys.readouterr().err
    assert not out.exists()


_CUBE6_CFG = {"space": {"kind": "cube", "dim": 1, "depth": 6}, "level_hi": 3}
_TRIALS_ARGV = {
    "audit_norm_variants": _CUBE6_CFG,
    "audit_porosity_qindependence": dict(_CUBE6_CFG,
                                         subset={"cantor_depth": 2}),
    "audit_nonhom_split": _CUBE6_CFG,
    "audit_small_p_embedding": dict(_CUBE6_CFG, p=0.8),
    "audit_approx_density": _CUBE6_CFG,
    "audit_theorem_suite": {"space": _CUBE6_CFG["space"],
                            "subset": {"cantor_depth": 2},
                            "theorem": "besov", "resolutions": [3]},
}


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("command", [*_TRIALS_ARGV, "check-telescoping"])
def test_trials_below_one_exit_2(tmp_path, capsys, command, trials):
    if command == "check-telescoping":
        cfg = write_cfg(tmp_path / "c.json", _CUBE6_CFG)
        argv = ["calculus", "check-telescoping", "--config", cfg,
                "--trials", str(trials)]
    else:
        cfg = write_cfg(tmp_path / "c.json",
                        dict(_TRIALS_ARGV[command], trials=trials))
        argv = ["verify", command, "--config", cfg]
    out = tmp_path / "out.json"
    assert hf.cli.main([*argv, "--out", str(out)]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_failed_small_p_audit_writes_its_report(tmp_path):
    # no dilation meets the threshold: the smallest one is written "inf"
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 6}, "level_hi": 4,
        "p": 0.8, "trials": 2, "const_threshold": 1e-9})
    out, csv = tmp_path / "r.json", tmp_path / "r.csv"
    proc = run_cli("verify", "audit_small_p_embedding", "--config", cfg,
                   "--out", str(out), "--csv", str(csv))
    assert proc.returncode == 4, proc.stderr
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["rows"][-1] == {"cell": "aggregate",
                                  "smallest_sigma": "inf"}
    assert "small_p_embedding,aggregate,smallest_sigma,inf" in \
        csv.read_text().splitlines()


def test_small_p_audit_with_an_empty_sigma_grid_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 6}, "level_hi": 4,
        "p": 0.8, "trials": 1, "sigma_grid": []})
    assert hf.cli.main(["verify", "audit_small_p_embedding",
                        "--config", cfg]) == 2
    assert "sigma_grid" in capsys.readouterr().err


@pytest.mark.parametrize("audit, field, value", [
    ("audit_small_p_embedding", "sigma_grid", ["inf", 1.0]),
    ("audit_small_p_embedding", "const_threshold", "inf"),
    ("audit_norm_variants", "band_threshold", "inf"),
])
def test_non_finite_audit_settings_exit_2_before_any_work(
        tmp_path, capsys, monkeypatch, audit, field, value):
    def no_work(*args, **kwargs):
        raise AssertionError("audit work started")

    monkeypatch.setattr(hf.cli, "build_filling", no_work)
    monkeypatch.setitem(hf.cli.AUDITS, audit, no_work)
    cfg = dict(_CUBE6_CFG, p=0.8) if audit == "audit_small_p_embedding" \
        else dict(_CUBE6_CFG)
    cfg = write_cfg(tmp_path / "v.json", dict(cfg, **{field: value}))
    out = tmp_path / "out.json"
    assert hf.cli.main(["verify", audit, "--config", cfg,
                        "--out", str(out)]) == 2
    assert "%s must be finite" % field in capsys.readouterr().err
    assert not out.exists()


def _edit_filling_file(tmp_path, edit):
    cfg = write_cfg(tmp_path / "f.json", {"space": CUBE8, "level_hi": 4})
    out = tmp_path / "filling.json"
    assert hf.cli.main(["filling", "build", "--config", cfg,
                        "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    edit(doc)
    out.write_text(json.dumps(doc))
    return str(out)


def test_loaded_filling_with_dropped_edge_exits_2(tmp_path, capsys):
    path = _edit_filling_file(tmp_path, lambda doc: doc["edges"].pop(7))
    assert hf.cli.main(["filling", "audit", "--filling", path]) == 2
    assert "edge" in capsys.readouterr().err


def test_loaded_filling_with_repeated_edge_exits_2(tmp_path, capsys):
    path = _edit_filling_file(
        tmp_path, lambda doc: doc["edges"].insert(7, dict(doc["edges"][7])))
    assert hf.cli.main(["filling", "audit", "--filling", path]) == 2
    assert "intersecting" in capsys.readouterr().err


def test_loaded_filling_with_reversed_edge_exits_2(tmp_path, capsys):
    def reverse_same_level(doc):
        levels = [v["level"] for v in doc["vertices"]]
        e = next(e for e in doc["edges"]
                 if levels[e["tail"]] == levels[e["head"]])
        e["tail"], e["head"] = e["head"], e["tail"]
    path = _edit_filling_file(tmp_path, reverse_same_level)
    assert hf.cli.main(["calculus", "check-telescoping", "--filling", path,
                        "--trials", "1"]) == 2
    assert "oriented" in capsys.readouterr().err


@pytest.mark.parametrize("radius", [-0.5, 0.0, float("nan")])
def test_loaded_filling_with_an_empty_ball_exits_2(tmp_path, capsys, radius):
    def empty_last_ball(doc):
        last = len(doc["vertices"]) - 1
        doc["vertices"][last]["radius"] = radius
        doc["edges"] = [e for e in doc["edges"] if last not in e.values()]
    path = _edit_filling_file(tmp_path, empty_last_ball)
    for argv in (["filling", "audit", "--filling", path],
                 ["calculus", "check-telescoping", "--filling", path,
                  "--trials", "1"]):
        assert hf.cli.main(argv) == 2, argv
        assert "radii" in capsys.readouterr().err


def test_filling_audit_of_a_loaded_filling_recounts_the_edges_once(
        tmp_path, capsys, monkeypatch):
    # the loader's edge-rule check and the audit share one recount: one
    # call of the near-level products
    path = _edit_filling_file(tmp_path, lambda doc: None)
    calls = []
    recount = hf.filling._near_level_pairs

    def counted(*args):
        calls.append(args)
        return recount(*args)

    monkeypatch.setattr(hf.filling, "_near_level_pairs", counted)
    assert hf.cli.main(["filling", "audit", "--filling", path]) == 0
    assert json.loads(capsys.readouterr().out)["edge_rule_ok"] is True
    assert len(calls) == 1


def test_loaded_filling_with_unsorted_edge_levels_exits_2(tmp_path, capsys):
    path = _edit_filling_file(
        tmp_path, lambda doc: doc["edges"].insert(0, doc["edges"].pop()))
    assert hf.cli.main(["filling", "audit", "--filling", path]) == 2
    assert "ascend by level" in capsys.readouterr().err


# Valid norm configs on a 16-point cube, then up to two fields replaced by
# JSON junk or dropped, so runs reach the solvers as well as the parser.
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=3), st.just("inf"))
_ANY = st.one_of(_JUNK, st.lists(_JUNK, max_size=3), st.just({}))
_FUNCTIONS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("values"),
                           "values": st.lists(st.floats(), min_size=16,
                                              max_size=16)}),
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "value": st.floats()}),
    st.fixed_dictionaries({"kind": st.just("random_tents"),
                           "n_tents": st.integers(-1, 8)}))
_NORM_CONFIGS = st.fixed_dictionaries(
    {"space": st.just({"kind": "cube", "dim": 1, "depth": 4}),
     "level_lo": st.integers(-2, 0),
     "level_hi": st.integers(0, 2),
     "params": st.fixed_dictionaries({
         "s": st.floats(0.05, 1.0),
         "p": st.sampled_from([0.5, 1, 1.5, 2.0, 4, "inf"]),
         "q": st.sampled_from([0.5, 1, 2.0, "inf"]),
         "kind": st.sampled_from(["besov", "triebel", "hajlasz",
                                  "nonhom_besov", "nonhom_triebel"])}),
     "function": _FUNCTIONS},
    optional={
        "variant": st.sampled_from(["indicator", "mass", "half_ball"]),
        "window": st.lists(st.integers(-1, 3), min_size=2, max_size=2),
        "seed": st.integers(0, 2**70)})


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_norm_config_exits_with_a_documented_code(data):
    cfg = copy.deepcopy(data.draw(_NORM_CONFIGS))
    for _ in range(data.draw(st.integers(0, 2))):
        # the space stays a 16-point cube, so no run can ask for a huge cloud
        where = cfg
        key = data.draw(st.sampled_from(sorted(set(where) - {"space"})))
        if (isinstance(where[key], dict) and where[key]
                and data.draw(st.booleans())):
            where = where[key]
            key = data.draw(st.sampled_from(sorted(where)))
        if data.draw(st.booleans()):
            where[key] = data.draw(_ANY)
        else:
            del where[key]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "n.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        code = hf.cli.main(["norm", "eval", "--config", path,
                            "--out", os.path.join(tmp, "out.json")])
    assert code in (0, 2, 3, 4)


def test_negative_seed_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "n.json", dict(NORM_CFG, seed=-1))
    assert hf.cli.main(["norm", "eval", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("kind, variant", [("besov", "indicator"),
                                           ("triebel", "indicator"),
                                           ("besov", "mass")])
def test_norm_eval_with_a_sample_near_the_float_limit(tmp_path, kind,
                                                      variant):
    # one sample of 1e300 at p = q = 2: the norm is representable, and the
    # run must write it rather than overflow
    values = [0.0] * 16
    values[5] = 1.0
    values_1e300 = [1e300 * v for v in values]
    out = {}
    for name, vals in (("unit", values), ("big", values_1e300)):
        cfg = write_cfg(tmp_path / ("%s.json" % name), {
            "space": {"kind": "cube", "dim": 1, "depth": 4}, "level_hi": 2,
            "params": {"s": 0.5, "p": 2.0, "q": 2.0, "kind": kind},
            "function": {"kind": "values", "values": vals},
            "variant": variant})
        path = tmp_path / ("%s_out.json" % name)
        assert hf.cli.main(["norm", "eval", "--config", cfg,
                            "--out", str(path)]) == 0
        out[name] = json.loads(path.read_text())["value"]
    assert out["big"] == pytest.approx(1e300 * out["unit"], rel=1e-14,
                                       abs=0.0)


def test_verify_threads_flag_is_accepted_and_ignored(tmp_path):
    cfg = write_cfg(tmp_path / "v.json", {
        "space": {"kind": "cube", "dim": 1, "depth": 8},
        "subset": {"cantor_depth": 4}, "theorem": "besov",
        "resolutions": [5], "trials": 1,
        "grid": {"s": [0.5], "p": [2.0], "q": [2.0]}})
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / ("r%s.json" % threads)
        assert hf.cli.main(["verify", "audit_theorem_suite", "--config", cfg,
                            "--threads", threads, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def _run_fuzzed(argv_of, cfg, data):
    """Replace or drop up to two config fields (never the space, and never
    the trial count, which only sets run length), then run the command."""
    for _ in range(data.draw(st.integers(0, 2))):
        where = cfg
        keys = sorted(set(where) - {"space", "trials"})
        if not keys:
            break
        key = data.draw(st.sampled_from(keys))
        if (isinstance(where[key], dict) and where[key]
                and data.draw(st.booleans())):
            where = where[key]
            key = data.draw(st.sampled_from(sorted(where)))
        if data.draw(st.booleans()):
            where[key] = data.draw(_ANY)
        else:
            del where[key]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return hf.cli.main(argv_of(path, os.path.join(tmp, "out.json")))


# Valid trace configs on a 64-point interval with a Cantor subset: each
# pipeline with a params kind it accepts.
_PARAMS = st.fixed_dictionaries({
    "s": st.floats(0.3, 0.95),
    "p": st.sampled_from([0.8, 1.5, 2.0, 4, 8, "inf"]),
    "q": st.sampled_from([1, 2.0, "inf"]),
    "kind": st.sampled_from(["besov", "triebel", "nonhom_besov"])})
_PIPELINES = [("besov", "trace", "besov"), ("besov", "extend", "besov"),
              ("besov", "roundtrip", "besov"),
              ("triebel", "trace", "triebel"),
              ("triebel", "roundtrip", "triebel"),
              ("nonhom", "trace", "nonhom_besov"),
              ("nonhom", "trace", "nonhom_triebel"),
              ("nonhom", "extend", "nonhom_besov"),
              ("nonhom", "roundtrip", "nonhom_besov"),
              ("sobolev", "extend", "besov")]


def _trace_config(pipeline):
    theorem, direction, kind = pipeline
    return st.fixed_dictionaries(
        {"space": st.just({"kind": "cube", "dim": 1, "depth": 6}),
         "subset": st.fixed_dictionaries({"cantor_depth": st.integers(1, 3)}),
         "level_hi": st.integers(1, 4),
         "params": _PARAMS.map(lambda p: dict(p, kind=kind)),
         "theorem": st.just(theorem),
         "direction": st.just(direction),
         "function": st.one_of(
             st.fixed_dictionaries({"kind": st.just("constant"),
                                    "value": st.floats()}),
             st.fixed_dictionaries({"kind": st.just("random_tents"),
                                    "n_tents": st.integers(-1, 4)}))},
        optional={"level_lo": st.integers(-2, 0),
                  "variant": st.sampled_from(["indicator", "mass",
                                              "half_ball"]),
                  "seed": st.integers(0, 2**70)})


_TRACE_CONFIGS = st.sampled_from(_PIPELINES).flatmap(_trace_config)


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_trace_config_exits_with_a_documented_code(data):
    cfg = copy.deepcopy(data.draw(_TRACE_CONFIGS))
    code = _run_fuzzed(lambda c, o: ["trace", "run", "--config", c,
                                     "--out", o], cfg, data)
    assert code in (0, 2, 3, 4)


# Valid configs for every audit on a 64-point interval, one trial each.
_CUBE6 = {"kind": "cube", "dim": 1, "depth": 6}
_VERIFY_CONFIGS = st.one_of(
    st.tuples(st.sampled_from(["audit_norm_variants", "audit_nonhom_split",
                               "audit_approx_density"]),
              st.fixed_dictionaries(
                  {"space": st.just(_CUBE6), "level_hi": st.integers(1, 3),
                   "trials": st.just(1)},
                  optional={"params": _PARAMS,
                            "level_lo": st.integers(-1, 0)})),
    st.tuples(st.just("audit_porosity_qindependence"),
              st.fixed_dictionaries(
                  {"space": st.just(_CUBE6),
                   "subset": st.just({"cantor_depth": 2}),
                   "level_hi": st.integers(1, 3), "trials": st.just(1)},
                  optional={"s": st.floats(0.05, 1.0),
                            "p": st.sampled_from([1.0, 2.0, 4.0]),
                            "q_list": st.lists(st.sampled_from([1, 2, 4]),
                                               min_size=1, max_size=3)})),
    st.tuples(st.just("audit_small_p_embedding"),
              st.fixed_dictionaries(
                  {"space": st.just(_CUBE6), "level_hi": st.integers(1, 3),
                   "p": st.sampled_from([0.5, 0.8, 1.0]),
                   "trials": st.just(1)},
                  optional={"level": st.integers(0, 3),
                            "sigma_grid": st.lists(st.floats(0.05, 1.0),
                                                   min_size=1,
                                                   max_size=3)})),
    st.tuples(st.just("audit_theorem_suite"),
              st.fixed_dictionaries(
                  {"space": st.just(_CUBE6),
                   "subset": st.just({"cantor_depth": 2}),
                   "theorem": st.sampled_from(["besov", "triebel",
                                               "sobolev"]),
                   "resolutions": st.lists(st.integers(1, 3), min_size=1,
                                           max_size=2),
                   "trials": st.just(1)},
                  optional={"grid": st.just({"s": [0.5], "p": [2.0],
                                             "q": [2.0]})})))


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_verify_config_exits_with_a_documented_code(data):
    audit, cfg = data.draw(_VERIFY_CONFIGS)
    cfg = copy.deepcopy(cfg)
    code = _run_fuzzed(lambda c, o: ["verify", audit, "--config", c,
                                     "--out", o], cfg, data)
    assert code in (0, 2, 3, 4)


# Valid descriptors of each kind, at most 64 points.
_SUBSETS = st.one_of(
    st.fixed_dictionaries({"cantor_depth": st.integers(1, 3)}),
    st.fixed_dictionaries({"indices": st.lists(st.integers(0, 7),
                                               min_size=1, max_size=4),
                           "lambda": st.floats(0.1, 1.0)}))
_SPACE_DESCRIPTORS = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("cube"), "dim": st.integers(1, 2),
         "depth": st.integers(1, 3)},
        optional={"metric": st.sampled_from(["sup", "euclidean"]),
                  "subset": _SUBSETS}),
    st.fixed_dictionaries(
        {"kind": st.just("ifs"),
         "maps": st.just([{"ratio": 1 / 3, "offset": [0.0]},
                          {"ratio": 1 / 3, "offset": [2 / 3]}]),
         "depth": st.integers(1, 6)},
        optional={"metric": st.sampled_from(["sup", "euclidean"]),
                  "subset": st.just({"submaps": [0]})}),
    st.integers(1, 8).flatmap(lambda n: st.fixed_dictionaries(
        {"kind": st.just("pointset"),
         "points": st.lists(st.lists(st.floats(0.0, 1.0), min_size=1,
                                     max_size=1), min_size=n, max_size=n),
         "weights": st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
         "metric": st.sampled_from(["sup", "euclidean"]),
         "resolution": st.floats(0.01, 0.5),
         "declared_Q": st.floats(0.5, 2.0),
         "declared_diam": st.floats(0.5, 2.0)})))


def _within_cap(desc, cap=64):
    """Whether the descriptor asks for at most `cap` points (malformed ones
    count as small: they never build a cloud)."""
    try:
        hf.space_from_descriptor(desc, point_budget=cap)
    except hf.ConfigError as exc:
        return "budget" not in str(exc)
    except Exception:
        return True
    return True


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_space_descriptor_exits_with_a_documented_code(data):
    desc = copy.deepcopy(data.draw(_SPACE_DESCRIPTORS))
    for _ in range(data.draw(st.integers(0, 2))):
        where = desc
        maps = desc.get("maps") if isinstance(desc.get("maps"), list) else []
        # a replaced "maps" may hold junk, or nothing, to descend into
        maps = [m for m in maps if isinstance(m, dict) and m]
        if maps and data.draw(st.booleans()):
            where = data.draw(st.sampled_from(maps))
        key = data.draw(st.sampled_from(sorted(where)))
        if data.draw(st.booleans()):
            where[key] = data.draw(_ANY)
        else:
            del where[key]
    assume(_within_cap(desc))
    action = data.draw(st.sampled_from(["build", "audit"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "space.json")
        with open(path, "w") as fh:
            json.dump(desc, fh)
        code = hf.cli.main(["space", action, path,
                            "--out" if action == "build" else "--report",
                            os.path.join(tmp, "out.json")])
    assert code in (0, 2, 3, 4)


_CANTOR_MAPS = [{"ratio": 1 / 3, "offset": [0.0]},
                {"ratio": 1 / 3, "offset": [2 / 3]}]


def _space_audit(tmp_path, desc):
    path = write_cfg(tmp_path / "space.json", desc)
    return hf.cli.main(["space", "audit", path,
                        "--report", str(tmp_path / "out.json")])


# Descriptors that once escaped the space fuzz as tracebacks (exit 1).

@pytest.mark.parametrize("subset", ["\u001b", [False, False, "inf"]])
def test_ifs_space_with_a_non_dict_subset_exits_2(tmp_path, capsys, subset):
    desc = {"kind": "ifs", "depth": 2, "maps": _CANTOR_MAPS, "subset": subset}
    assert _space_audit(tmp_path, desc) == 2
    assert "subset descriptor must be a dict" in capsys.readouterr().err


def test_ifs_space_with_a_huge_depth_exits_2_at_once(tmp_path, capsys):
    # the point count k**depth was once computed before the budget check:
    # a depth near 1e10 stalled the fuzz, gigabytes deep in one integer
    desc = {"kind": "ifs", "depth": 10**12, "maps": _CANTOR_MAPS}
    assert _space_audit(tmp_path, desc) == 2
    assert "over the budget" in capsys.readouterr().err


@pytest.mark.parametrize("diam", ["inf", 5e-324])
def test_space_audit_with_an_unusable_declared_diameter_exits_2(tmp_path,
                                                                capsys, diam):
    # "inf" has no dyadic radius ladder; half of 5e-324 is 0, with no log2
    desc = {"kind": "pointset", "metric": "sup",
            "points": [[0.7645709165815633], [0.848298479313905],
                       [0.5735098243106013], [0.04976765272887464]],
            "weights": [0.5841679452137549, 0.5, 0.7541428153698354, 0.1],
            "resolution": 0.14228917770239707,
            "declared_Q": 1.7990602275940164, "declared_diam": diam}
    assert _space_audit(tmp_path, desc) == 2
    assert "error:" in capsys.readouterr().err


def test_ifs_space_whose_resolution_underflows_exits_2(tmp_path):
    # (1e-100)^4 times the diameter is 0.0: the space must be refused when
    # it is built, not patched afterwards; the audit's radius ladder once
    # halved toward that 0.0 resolution forever
    desc = write_cfg(tmp_path / "space.json", {
        "kind": "ifs", "depth": 4,
        "maps": [{"ratio": 1e-100, "offset": [0.0]},
                 {"ratio": 1e-100, "offset": [1.0]}]})
    for action, flag in (("build", "--out"), ("audit", "--report")):
        out = tmp_path / (action + ".json")
        proc = run_cli("space", action, desc, flag, str(out), timeout=60)
        assert proc.returncode == 2, (action, proc.stderr)
        assert "resolution" in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()


_POINTSET = {"kind": "pointset", "metric": "sup",
             "points": [[0.0], [0.5], [1.0]], "weights": [1.0, 1.0, 1.0],
             "resolution": 0.125, "declared_Q": 1.0, "declared_diam": 1.0}


@pytest.mark.parametrize("desc", [
    dict(_POINTSET, weights=[1.0, "inf", 1.0]),
    dict(_POINTSET, subset={"indices": [0, 1], "lambda": 0.5,
                            "weights": [1.0, "inf"]}),
], ids=["space", "subset"])
def test_space_with_an_infinite_weight_exits_2(tmp_path, capsys, desc):
    path = write_cfg(tmp_path / "space.json", desc)
    out = tmp_path / "built.json"
    assert hf.cli.main(["space", "build", path, "--out", str(out)]) == 2
    assert "weights must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def _set_vertex(i, key, value):
    def edit(doc):
        doc["vertices"][i][key] = value(doc["vertices"][i][key])
    return edit


def _set_edge(i, key, value):
    def edit(doc):
        doc["edges"][i][key] = value(doc["edges"][i][key])
    return edit


_BAD_FILLING_EDITS = {
    "huge_level_hi": lambda doc: doc.update(level_hi=10**30),
    "no_vertices": lambda doc: doc.update(vertices=[], edges=[]),
    "unknown_flavor": lambda doc: doc.update(flavor="cubic"),
    "float_center": _set_vertex(1, "center", lambda c: c + 0.5),
    "bool_center": _set_vertex(0, "center", lambda c: bool(c)),
    "float_level": _set_vertex(0, "level", float),
    "float_level_lo": lambda doc: doc.update(level_lo=0.5),
    "float_tail": _set_edge(0, "tail", float),
    "bool_head": _set_edge(0, "head", lambda h: True),
}


@pytest.mark.parametrize("edit", sorted(_BAD_FILLING_EDITS))
def test_malformed_filling_document_exits_2(tmp_path, capsys, edit):
    path = _edit_filling_file(tmp_path, _BAD_FILLING_EDITS[edit])
    capsys.readouterr()
    for argv in (["filling", "audit", "--filling", path],
                 ["calculus", "check-telescoping", "--filling", path,
                  "--trials", "1"]):
        assert hf.cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("point", range(8))
def test_loaded_filling_with_a_moved_center_exits_2(tmp_path, capsys, point):
    # level 0 of the 1-D depth-4 cube has its centers at points 0 and 8;
    # the second moved to any of points 0-7 leaves a net that is not
    # separated or does not cover, which the loader refuses
    doc = hf.filling_to_dict(hf.build_filling(hf.unit_cube_space(1, 4), 0, 2))
    assert doc["vertices"][1] == {"center": 8, "radius": 1.0, "level": 0}
    doc["vertices"][1]["center"] = point
    path = tmp_path / "filling.json"
    path.write_text(json.dumps(doc))
    for argv in (["filling", "audit", "--filling", str(path)],
                 ["calculus", "check-telescoping", "--filling", str(path),
                  "--trials", "1"]):
        assert hf.cli.main(argv) == 2, argv
        assert "level 0: the" in capsys.readouterr().err


_DEPTH4_FILLING = hf.filling_to_dict(
    hf.build_filling(hf.unit_cube_space(1, 4), 0, 2))


def _edit_filling_doc(data, doc):
    """One random edit of a filling document, drawn from ``data``."""
    vertices, edges = doc["vertices"], doc["edges"]
    kind = data.draw(st.sampled_from(["center", "drop", "duplicate", "flip",
                                      "radius", "level", "flavor"]))
    v = data.draw(st.integers(0, len(vertices) - 1))
    e = data.draw(st.integers(0, len(edges) - 1))
    if kind == "center":
        vertices[v]["center"] = data.draw(st.integers(0, 15))
    elif kind == "drop":
        del edges[e]
    elif kind == "duplicate":
        edges.insert(data.draw(st.integers(0, len(edges))), dict(edges[e]))
    elif kind == "flip":
        edges[e] = {"tail": edges[e]["head"], "head": edges[e]["tail"]}
    elif kind == "radius":
        vertices[v]["radius"] = data.draw(st.sampled_from(
            [0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 1e300]))
    elif kind == "level":
        vertices[v]["level"] = data.draw(st.integers(-1, 3))
    else:
        doc["flavor"] = data.draw(st.sampled_from(
            ["plain", "trace", "nested-ambient", "cubic"]))


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_filling_document_exits_with_a_documented_code(data):
    # edits of the 1-D depth-4 document, levels 0..2; a document that
    # fails the audit never checks out as telescoping
    doc = copy.deepcopy(_DEPTH4_FILLING)
    for _ in range(data.draw(st.integers(1, 3))):
        _edit_filling_doc(data, doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "filling.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        audit = hf.cli.main(["filling", "audit", "--filling", path,
                             "--report", os.path.join(tmp, "audit.json")])
        telescoping = hf.cli.main(["calculus", "check-telescoping",
                                   "--filling", path, "--trials", "1",
                                   "--out", os.path.join(tmp, "t.json")])
    assert audit in (0, 2, 3, 4) and telescoping in (0, 2, 3, 4)
    assert audit == 0 or telescoping != 0


def test_norm_that_leaves_the_float_range_exits_4(tmp_path, capsys):
    # (sum a_k^q)^(1/q) over several levels is far above the float range
    cfg = write_cfg(tmp_path / "n.json", dict(
        NORM_CFG, params=dict(NORM_CFG["params"], q=1e-300)))
    out = tmp_path / "norm.json"
    assert hf.cli.main(["norm", "eval", "--config", cfg,
                        "--out", str(out)]) == 4
    assert "float range" in capsys.readouterr().err
    assert not out.exists()
