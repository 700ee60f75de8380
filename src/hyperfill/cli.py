"""Command-line front end: config files in, canonical JSON reports out.

Exit codes: 0 success, 2 config/validation error, 3 hypothesis gate
rejection, 4 numerical failure.  The HYPERFILL_SEED environment
variable overrides any seed found in configs or flags, and identical
configs with identical seeds write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._jsonio import canonical_dumps, read_json
from ._kernels import BACKEND
from ._version import __version__
from .calculus import discrete_derivative, edge_blend, level_blend
from .errors import ConfigError, GateError, HyperfillError, NumericalError
from .filling import (audit_filling, audit_nested, build_filling,
                      build_nested_filling, filling_from_dict,
                      filling_to_dict, nested_from_dict, nested_to_dict,
                      overlap_audit)
from .hajlasz import hajlasz_norm
from .norms import (NormVariant, SmoothnessParams, besov_fn_norm,
                    nonhom_norm, triebel_fn_norm)
from .space import (_check_keys, _dyadic_radii, ahlfors_fit,
                    codim_regularity_check, doubling_audit,
                    mask_from_descriptor, mask_to_descriptor,
                    metric_spot_check, porosity_scan, space_from_descriptor,
                    space_to_descriptor, subspace)
from .trace import _OPERATORS, _SOURCE_KINDS
from .verify import AUDITS, _check_trials, random_tent_functions

__all__ = ["main"]


def _echo(payload: dict, out_path: str | None) -> None:
    """Write canonical JSON to a file or stdout."""
    if out_path:
        _write_file(out_path, canonical_dumps(payload))
    else:
        sys.stdout.write(canonical_dumps(payload))


def _write_file(path: str, text: str) -> None:
    """Text to a file named on the command line; a path that cannot be
    written is a config error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write %s: %s"
                          % (path, exc.strerror or exc)) from exc


def _read(path: str):
    """JSON from a file named on the command line or inside a config."""
    try:
        return read_json(path)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s"
                          % (path, exc.strerror or exc)) from exc


def _int(value, what: str) -> int:
    """A config value that must be a JSON integer; a float, a bool or a
    string is refused, not cast."""
    if type(value) is not int:
        raise ConfigError("%s must be an integer, got %r" % (what, value))
    return value


def _raw_float(value, what: str) -> float:
    """A config value as a float, not checked to be finite; malformed
    values are config errors."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("%s must be a number, got %r"
                          % (what, value)) from None


def _float(value, what: str) -> float:
    """A config value as a finite float."""
    x = _raw_float(value, what)
    if not math.isfinite(x):
        raise ConfigError("%s must be finite, got %r" % (what, value))
    return x


def _list(value, what: str) -> list:
    """A config value that must be a JSON list."""
    if not isinstance(value, list):
        raise ConfigError("%s must be a list, got %r" % (what, value))
    return value


def _load_cfg(path: str) -> dict:
    cfg = _read(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _seed_of(cfg: dict, args) -> int:
    """Effective seed: env var beats config beats flag default."""
    env = os.environ.get("HYPERFILL_SEED")
    if env is not None:
        what = "HYPERFILL_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError("%s must be an integer, got %r"
                              % (what, env)) from None
    elif "seed" in cfg:
        seed, what = _int(cfg["seed"], "seed"), "seed"
    else:
        seed, what = int(getattr(args, "seed", 0) or 0), "--seed"
    if seed < 0:
        raise ConfigError("%s must be non-negative, got %d" % (what, seed))
    return seed


def _space_of(cfg: dict):
    """(space, inline mask) from an inline descriptor or a file path."""
    desc = cfg.get("space")
    if isinstance(desc, str):
        desc = _read(desc)
    if desc is None:
        raise ConfigError("config needs a 'space' descriptor")
    return space_from_descriptor(desc)


def _mask_of(cfg: dict, space, inline_mask):
    if inline_mask is not None:
        return inline_mask
    sub = cfg.get("subset")
    if isinstance(sub, str):
        sub = _read(sub)
    if sub is None:
        return None
    return mask_from_descriptor(space, sub)


def _params_of(raw, what: str, kind: str = "besov") -> SmoothnessParams:
    """Smoothness exponents from a config's params object."""
    if not isinstance(raw, dict):
        raise ConfigError("config needs a %r object" % what)
    _check_keys(raw, {"s", "p"}, {"q", "kind"}, what + " config")
    q = raw.get("q", "inf")
    return SmoothnessParams(
        s=_float(raw["s"], what + ".s"), p=_num(raw["p"], what + ".p"),
        q=_num(q, what + ".q"), kind=raw.get("kind", kind))


def _num(x, what: str) -> float:
    """A number or the string 'inf'."""
    if isinstance(x, str):
        if x == "inf":
            return np.inf
        raise ConfigError("%s must be a number or 'inf', got %r" % (what, x))
    return _raw_float(x, what)


def _variant_of(cfg: dict) -> NormVariant | None:
    name = cfg.get("variant", "indicator")
    if name == "indicator":
        return None
    if name in ("mass", "half_ball"):
        return NormVariant(name)
    raise ConfigError("unknown variant %r" % name)


def _function_of(cfg: dict, space, seed: int) -> np.ndarray:
    raw = cfg.get("function")
    if not isinstance(raw, dict):
        raise ConfigError("config needs a 'function' object")
    kind = raw.get("kind")
    if kind == "values":
        vals = [_raw_float(v, "function.values")
                for v in _list(raw.get("values"), "function.values")]
        if len(vals) != space.n_points:
            raise ConfigError("function values must list one number per "
                              "point (%d)" % space.n_points)
        return np.array(vals)
    if kind == "constant":
        return np.full(space.n_points,
                       _raw_float(raw.get("value", 1.0), "function.value"))
    if kind == "random_tents":
        rng = np.random.default_rng(seed)
        return random_tent_functions(
            space, 1, rng,
            n_tents=_int(raw.get("n_tents", 6), "function.n_tents"))[0]
    raise ConfigError("unknown function kind %r" % kind)


def _window_of(cfg: dict) -> tuple[int, int]:
    lo = cfg.get("level_lo", 0)
    if "level_hi" not in cfg:
        raise ConfigError("config needs 'level_hi'")
    return _int(lo, "level_lo"), _int(cfg["level_hi"], "level_hi")


# ---------------------------------------------------------------- space

def _cmd_space_build(args) -> None:
    desc = _read(args.descriptor)
    space, mask = space_from_descriptor(desc)
    payload = {
        "descriptor": space_to_descriptor(space),
        "n_points": space.n_points,
        "dim": space.dim,
        "resolution": space.resolution,
        "declared_Q": space.declared_Q,
        "declared_diam": space.declared_diam,
        "measured_diam": space.measured_diam(),
    }
    if mask is not None:
        payload["subset"] = mask_to_descriptor(mask)
    _echo(payload, args.out)


def _cmd_space_audit(args) -> None:
    desc = _read(args.descriptor)
    space, mask = space_from_descriptor(desc)
    seed = _seed_of(desc if isinstance(desc, dict) else {}, args)
    fit = ahlfors_fit(space, _dyadic_radii(space), seed=seed)
    payload = {
        "ahlfors": {"Q_hat": fit.Q_hat, "C_lo": fit.C_lo, "C_hi": fit.C_hi,
                    "declared_Q": space.declared_Q,
                    "radii": list(fit.radii)},
        "doubling_worst": doubling_audit(space, seed=seed),
        "metric_ok": metric_spot_check(space, seed=seed),
        "backend": BACKEND,
    }
    if mask is not None:
        sub, _ = subspace(space, mask)
        lam = mask.declared_lambda
        sub_fit = ahlfors_fit(sub, _dyadic_radii(sub), seed=seed)
        payload["subset"] = {
            "lambda_hat": sub_fit.Q_hat,
            "declared_lambda": lam,
            "porosity": porosity_scan(space, mask, seed=seed),
            "codim_band": list(codim_regularity_check(
                space, mask, space.declared_Q - lam,
                _dyadic_radii(space), seed=seed)),
        }
    _echo(payload, args.report)


# -------------------------------------------------------------- filling

def _filling_from_cfg(cfg: dict):
    """(filling, nested?) from a config: nested when it names a subset."""
    space, inline_mask = _space_of(cfg)
    mask = _mask_of(cfg, space, inline_mask)
    lo, hi = _window_of(cfg)
    if mask is not None:
        return build_nested_filling(space, mask, lo, hi), True
    return build_filling(space, lo, hi), False


def _cmd_filling_build(args) -> None:
    cfg = _load_cfg(args.config)
    _check_keys(cfg, {"space", "level_hi"},
                {"subset", "level_lo", "seed"}, "filling build config")
    built, nested = _filling_from_cfg(cfg)
    payload = nested_to_dict(built) if nested else filling_to_dict(built)
    _echo(payload, args.out)


def _load_filling(args):
    """Filling from --filling file or built from --config."""
    if getattr(args, "filling", None):
        payload = _read(args.filling)
        if not isinstance(payload, dict):
            raise ConfigError("filling file must hold a JSON object")
        if "ambient" in payload:
            return nested_from_dict(payload), True
        return filling_from_dict(payload), False
    if getattr(args, "config", None):
        cfg = _load_cfg(args.config)
        _check_keys(cfg, {"space", "level_hi"},
                    {"subset", "level_lo", "seed"}, "filling config")
        return _filling_from_cfg(cfg)
    raise ConfigError("need --filling or --config")


def _cmd_filling_audit(args) -> None:
    built, nested = _load_filling(args)
    if nested:
        payload = audit_nested(built)
        payload["ambient_overlap"] = overlap_audit(built.ambient)
        payload["trace_overlap"] = overlap_audit(built.trace)
    else:
        payload = audit_filling(built)
    _echo(payload, args.report)
    if not payload.get("ok", True):
        raise NumericalError("filling audit failed; see report")


# ------------------------------------------------------------- calculus

def _cmd_check_telescoping(args) -> None:
    built, nested = _load_filling(args)
    filling = built.ambient if nested else built
    seed = _seed_of({}, args)
    rng = np.random.default_rng(seed)
    trials = args.trials
    _check_trials(trials)
    worst = {}
    for _ in range(trials):
        v = rng.normal(size=filling.n_vertices)
        u = discrete_derivative(filling, v)
        scale = float(np.abs(v).max()) or 1.0
        for n in range(filling.level_lo, filling.level_hi):
            blended = edge_blend(filling, u, n)
            direct = (level_blend(filling, v, n + 1)
                      - level_blend(filling, v, n))
            err = float(np.abs(blended - direct).max()) / scale
            worst[n] = max(worst.get(n, 0.0), err)
    tol = 1e-12
    payload = {
        "trials": trials,
        "tolerance": tol,
        "max_relative_error": {str(n): worst[n] for n in sorted(worst)},
        "ok": all(e <= tol for e in worst.values()),
        "seed": seed,
        "backend": BACKEND,
    }
    _echo(payload, args.out)
    if not payload["ok"]:
        raise NumericalError("telescoping identity exceeded tolerance")


# ----------------------------------------------------------------- norm

def _cmd_norm_eval(args) -> None:
    cfg = _load_cfg(args.config)
    _check_keys(cfg, {"space", "level_hi", "params", "function"},
                {"level_lo", "seed", "variant", "window"}, "norm eval config")
    space, _ = _space_of(cfg)
    seed = _seed_of(cfg, args)
    params = _params_of(cfg.get("params"), "params")
    if "window" in cfg and params.kind not in ("besov", "triebel"):
        raise ConfigError("window applies to besov and triebel norms only, "
                          "not to kind %r" % params.kind)
    f = _function_of(cfg, space, seed)
    payload = {"params": params.to_dict(), "seed": seed,
               "backend": BACKEND}
    if params.kind == "hajlasz":
        result = hajlasz_norm(space, f, params)
        payload.update(value=result.norm, gap=result.gap,
                       iterations=result.iterations,
                       converged=result.converged)
        _echo(payload, args.out)
        return
    lo, hi = _window_of(cfg)
    window = None
    if "window" in cfg:
        window = tuple(_int(k, "window")
                       for k in _list(cfg["window"], "window"))
        if len(window) != 2:
            raise ConfigError("window must list two levels, got %r"
                              % (cfg["window"],))
    filling = build_filling(space, lo, hi)
    variant = _variant_of(cfg)
    if params.kind == "besov":
        value = besov_fn_norm(filling, f, params, variant, window)
    elif params.kind == "triebel":
        value = triebel_fn_norm(filling, f, params, variant, window)
    else:
        coarse, seq = nonhom_norm(filling, f, params, variant)
        payload.update(coarse_part=coarse, oscillation_part=seq)
        value = coarse + seq
    payload["value"] = value
    _echo(payload, args.out)


# ---------------------------------------------------------------- trace

def _cmd_trace_run(args) -> None:
    cfg = _load_cfg(args.config)
    _check_keys(cfg, {"space", "subset", "level_hi", "params", "theorem",
                      "direction", "function"},
                {"level_lo", "seed", "variant"}, "trace run config")
    theorem = cfg["theorem"]
    direction = cfg["direction"]
    if theorem == "sobolev" and direction != "extend":
        raise ConfigError("the sobolev pipeline is extension-only; "
                          "its trace lands in a besov class")
    op = (_OPERATORS.get((theorem, direction))
          if isinstance(theorem, str) and isinstance(direction, str) else None)
    if op is None:
        raise ConfigError("no pipeline for theorem %r and direction %r"
                          % (theorem, direction))
    space, inline_mask = _space_of(cfg)
    mask = _mask_of(cfg, space, inline_mask)
    if mask is None:
        raise ConfigError("trace run needs a subset")
    lo, hi = _window_of(cfg)
    nested = build_nested_filling(space, mask, lo, hi)
    seed = _seed_of(cfg, args)
    params = _params_of(cfg.get("params"), "params",
                        _SOURCE_KINDS[theorem][0])
    variant = _variant_of(cfg)
    payload = {"theorem": theorem, "direction": direction, "seed": seed,
               "params": params.to_dict(), "backend": BACKEND}
    f = _function_of(cfg, space if direction == "trace"
                     else nested.trace_space, seed)
    if direction == "roundtrip":
        extend, trace = op
        ext = extend(nested, f, params, variant)
        back = trace(nested, ext.samples, params, variant)
        sup_err = float(np.abs(back.samples - f).max())
        payload.update(roundtrip_sup_error=sup_err,
                       extend=_ext_json(ext), trace=_trace_json(back))
    else:
        res = op(nested, f, params, variant)
        payload.update(_trace_json(res) if direction == "trace"
                       else _ext_json(res))
    _echo(payload, args.out)


def _trace_json(res) -> dict:
    return {
        "trace_norm": res.trace_norm,
        "source_norm": res.source_norm,
        "operator_ratio": res.operator_ratio,
        "trace_params": res.trace_params.to_dict(),
        "details": res.details,
        "samples": res.samples.tolist(),
    }


def _ext_json(res) -> dict:
    out = {
        "target_norm": res.target_norm,
        "source_norm": res.source_norm,
        "operator_ratio": res.operator_ratio,
        "restriction_sup_error": res.restriction_sup_error,
        "source_params": res.source_params.to_dict(),
        "details": res.details,
        "samples": res.samples.tolist(),
    }
    if res.certificate is not None:
        out["certificate"] = {"K": res.certificate.K,
                              "norm": res.certificate.norm,
                              "pairs_checked": res.certificate.pairs_checked}
    return out


# --------------------------------------------------------------- verify

_AUDIT_KEYS = {
    "audit_norm_variants": ({"space", "level_hi"},
                            {"level_lo", "params", "trials", "seed",
                             "band_threshold"}),
    "audit_porosity_qindependence": ({"space", "subset", "level_hi"},
                                     {"level_lo", "s", "p", "q_list",
                                      "trials", "seed"}),
    "audit_nonhom_split": ({"space", "level_hi"},
                           {"level_lo", "params", "trials", "seed",
                            "band_threshold"}),
    "audit_small_p_embedding": ({"space", "level_hi", "p"},
                                {"level_lo", "sigma_grid", "trials", "seed",
                                 "const_threshold", "level"}),
    "audit_approx_density": ({"space", "level_hi"},
                             {"level_lo", "params", "trials", "seed",
                              "final_fraction", "slack"}),
    "audit_theorem_suite": ({"space", "theorem", "resolutions"},
                            {"subset", "grid", "trials", "seed",
                             "widen_threshold"}),
}


def _num_list(value, what: str) -> list:
    return [_num(x, what) for x in _list(value, what)]


def _float_list(value, what: str) -> list:
    return [_float(x, what) for x in _list(value, what)]


# Audit keywords read from a verify config, each with its converter; the
# other config fields (space, subset, window, seed, theorem suite grid)
# name the audit's targets.
_AUDIT_FIELDS = {
    "params": _params_of,
    "trials": _int,
    "level": _int,
    "s": _float,
    "p": _float,
    "band_threshold": _float,
    "final_fraction": _float,
    "slack": _float,
    "const_threshold": _float,
    "widen_threshold": _float,
    "q_list": _num_list,
    "sigma_grid": _float_list,
}


def _cmd_verify(args) -> None:
    name = args.audit
    if name not in AUDITS:
        raise ConfigError("unknown audit %r; choose from %s"
                          % (name, sorted(AUDITS)))
    cfg = _load_cfg(args.config)
    required, optional = _AUDIT_KEYS[name]
    _check_keys(cfg, required, optional, name + " config")
    seed = _seed_of(cfg, args)
    kwargs = {key: convert(cfg[key], key)
              for key, convert in _AUDIT_FIELDS.items() if key in cfg}

    if name == "audit_theorem_suite":
        sub = cfg.get("subset")
        if isinstance(sub, str):
            sub = _read(sub)
        space_desc = cfg["space"]
        if isinstance(space_desc, str):
            space_desc = _read(space_desc)
        targets = (space_desc, sub, cfg["theorem"],
                   cfg.get("grid", {"s": [0.5], "p": [2.0], "q": [2.0]}),
                   cfg["resolutions"])
    else:
        space, inline_mask = _space_of(cfg)
        lo, hi = _window_of(cfg)
        mask = _mask_of(cfg, space, inline_mask)
        if name == "audit_porosity_qindependence":
            if mask is None:
                raise ConfigError("audit needs a subset")
            targets = (build_nested_filling(space, mask, lo, hi),)
        else:
            targets = (build_filling(space, lo, hi),)
    report = AUDITS[name](*targets, seed=seed, **kwargs)

    payload = report.to_dict()
    _echo(payload, args.out)
    if args.csv:
        _write_file(args.csv, report.csv_text())
    if not report.passed:
        raise NumericalError(
            "audit verdicts failed: %s"
            % sorted(k for k, v in report.verdicts.items() if not v))


# ----------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hyperfill",
        description="Multiscale ball calculus on finite metric spaces.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("space", help="build or audit a space")
    spsub = sp.add_subparsers(dest="action", required=True)
    b = spsub.add_parser("build")
    b.add_argument("descriptor")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_space_build)
    a = spsub.add_parser("audit")
    a.add_argument("descriptor")
    a.add_argument("--report")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=_cmd_space_audit)

    fl = sub.add_parser("filling", help="build or audit a filling")
    flsub = fl.add_subparsers(dest="action", required=True)
    b = flsub.add_parser("build")
    b.add_argument("--config", required=True)
    b.add_argument("--out")
    b.set_defaults(func=_cmd_filling_build)
    a = flsub.add_parser("audit")
    a.add_argument("--config")
    a.add_argument("--filling")
    a.add_argument("--report")
    a.set_defaults(func=_cmd_filling_audit)

    ca = sub.add_parser("calculus", help="calculus identities")
    casub = ca.add_subparsers(dest="action", required=True)
    t = casub.add_parser("check-telescoping")
    t.add_argument("--config")
    t.add_argument("--filling")
    t.add_argument("--trials", type=int, default=20)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out")
    t.set_defaults(func=_cmd_check_telescoping)

    no = sub.add_parser("norm", help="evaluate function norms")
    nosub = no.add_subparsers(dest="action", required=True)
    e = nosub.add_parser("eval")
    e.add_argument("--config", required=True)
    e.add_argument("--out")
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=_cmd_norm_eval)

    tr = sub.add_parser("trace", help="trace/extension pipelines")
    trsub = tr.add_subparsers(dest="action", required=True)
    r = trsub.add_parser("run")
    r.add_argument("--config", required=True)
    r.add_argument("--out")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(func=_cmd_trace_run)

    ve = sub.add_parser("verify", help="run a named audit")
    ve.add_argument("audit")
    ve.add_argument("--config", required=True)
    ve.add_argument("--out")
    ve.add_argument("--csv")
    ve.add_argument("--seed", type=int, default=0)
    # accepted for old command lines; audits run in one thread
    ve.add_argument("--threads", type=int, default=None,
                    help="ignored; kept for compatibility")
    ve.set_defaults(func=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except GateError as exc:
        print("gate: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical: %s" % exc, file=sys.stderr)
        return 4
    except HyperfillError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
