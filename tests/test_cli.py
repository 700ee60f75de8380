import json
import os
import subprocess
import sys

import pytest

import hyperfill as hf

CUBE8 = {"kind": "cube", "dim": 1, "depth": 8}


def run_cli(*argv, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "HYPERFILL_SEED"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "hyperfill", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)


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
    assert payload["backend"] in ("compiled", "pure")


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
