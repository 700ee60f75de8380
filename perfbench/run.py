"""Pipeline benchmark for hyperfill: one workload per process.

    python3 perfbench/run.py --workload grid2d --seed 0 --seconds 24 --trace 0

Runs the named workload through the public library API on the pure NumPy
kernel lane, checks every op's output, and prints one line per metric
followed, as the last line, by a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced pass and reports the
per-module metrics and the tracing overhead instead.  The full record
(provenance, exact counts, digests, spans) goes to
``perfbench/runs/BENCH_<workload>_seed<seed>_trace<t>.json``.

See NOTES.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
EXPECTED = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
HELDOUT_SEED = 1
RECORDED_SEEDS = (DEFAULT_SEED, HELDOUT_SEED)
SETUP_SAMPLES = {"full": 3, "tiny": 2}
GOLDEN_REL = 1e-9
WORKLOAD_NAMES = ("grid2d", "cantor_pair", "hajlasz_ladder")

E2E_UNITS = {"setup_s": "s", "first_result_s": "s", "wall_s": "s",
             "peak_rss_mb": "MB", "ok_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no library source)."""


def bootstrap():
    """Import hyperfill from this checkout's ``src``, pure lane only."""
    if not os.path.isfile(os.path.join(SRC, "hyperfill", "__init__.py")):
        raise BenchError("no hyperfill source under %s" % SRC)
    os.environ["HYPERFILL_PURE"] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hyperfill
    if not os.path.abspath(hyperfill.__file__).startswith(SRC + os.sep):
        raise BenchError("hyperfill imported from %s, not from %s"
                         % (hyperfill.__file__, SRC))


def timed_setup(workload, seed, scale):
    """Seconds from before ``import hyperfill`` to ready inputs."""
    t0 = time.perf_counter()
    bootstrap()
    import workloads
    inputs = workloads.WORKLOADS[workload].setup(seed, scale)
    return time.perf_counter() - t0, inputs


def probe_setup(workload, seed, scale):
    """Set-up time of a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--scale", scale, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


# -- one pass -------------------------------------------------------------

class Pass:
    """Outcome of running every op of a workload once."""

    def __init__(self):
        self.attempted = 0
        self.raised = []          # (op, "Error: message")
        self.wrong = []           # (op, problem)
        self.first_result_s = None
        self.wall_s = 0.0
        self.check_s = 0.0
        self.payload_bytes = 0
        self.values = {}          # op -> flattened payload numbers
        self.golden_ops = set()   # ops whose values are compared to records
        self.counts = {}
        self.digest = ""

    def failed_ops(self):
        return {op for op, _ in self.raised + self.wrong}


def run_pass(workload, inputs, check=True):
    """Run the ops in order; a failing op is counted, never fatal.

    Timing covers the library calls and the canonical JSON of each op's
    payload, as the CLI writes it; the benchmark's own checks are timed
    separately and left out of ``wall_s`` and ``first_result_s``.  With
    ``check=False`` the checks are skipped: a repeated pass is judged by
    its digest, which must equal the checked pass's.
    """
    from hyperfill import _jsonio
    clock = time.perf_counter
    out = Pass()
    state = {"results": {}}
    digest = hashlib.sha256()
    start = clock()
    for op in workload.ops(inputs):
        out.attempted += 1
        try:
            result = op.run(state)
            text = _jsonio.canonical_dumps(op.payload(result))
        except Exception as exc:  # an op that raises is a failed op
            state["results"][op.name] = exc
            out.raised.append((op.name, "%s: %s" % (type(exc).__name__,
                                                     exc)))
            digest.update(("%s raised %s\n" % (op.name, type(exc).__name__))
                          .encode())
            continue
        state["results"][op.name] = result
        done = clock()
        out.payload_bytes += len(text)
        digest.update(op.name.encode() + b"\n" + text.encode())
        if check:
            try:
                problems = op.check(state, result) if op.check else []
            except Exception as exc:  # a check that cannot run fails it
                problems = ["check raised %s: %s"
                            % (type(exc).__name__, exc)]
            out.wrong += [(op.name, p) for p in problems]
            out.values[op.name] = flatten(json.loads(text))
            if op.golden:
                out.golden_ops.add(op.name)
        if op.result and out.first_result_s is None:
            out.first_result_s = done - start - out.check_s
        out.check_s += clock() - done
    out.wall_s = clock() - start - out.check_s
    if out.first_result_s is None:
        out.first_result_s = out.wall_s
    out.counts = workload.counts(state)
    out.digest = digest.hexdigest()
    return out


def flatten(doc, prefix=""):
    """Numeric leaves of a payload; long arrays reduce to three moments."""
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out.update(flatten(v, "%s/%s" % (prefix, k) if prefix else k))
        return out
    if isinstance(doc, list):
        if len(doc) > 16 and all(isinstance(v, (int, float)) for v in doc):
            return {prefix + "/sum": float(sum(doc)),
                    prefix + "/sumsq": float(sum(v * v for v in doc)),
                    prefix + "/maxabs": float(max(abs(v) for v in doc))}
        out = {}
        for i, v in enumerate(doc):
            out.update(flatten(v, "%s/%d" % (prefix, i)))
        return out
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        return {}
    return {prefix: doc}


# -- checks across passes and runs ----------------------------------------

def load_expected():
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def golden_problems(workload, seed, scale, passes):
    """Exact counts and recorded values; both exist for the full scale."""
    if scale != "full":
        return []
    rec = load_expected().get(workload, {})
    first = passes[0]
    problems = []
    for name, want in rec.get("counts", {}).items():
        got = first.counts.get(name)
        if got != want:
            problems.append(("counts", "count %s = %r, recorded %r"
                             % (name, got, want)))
    for op, want_vals in rec.get("values", {}).get(str(seed), {}).items():
        got = first.values.get(op, {}) if op in first.golden_ops else {}
        for key, want in want_vals.items():
            have = got.get(key)
            if have is None or not abs(have - want) <= GOLDEN_REL * max(
                    abs(have), abs(want)):
                problems.append((op, "%s = %r, recorded %r"
                                 % (key, have, want)))
    return problems


def code_hash():
    """sha256 of the library and benchmark sources, so that a recorded
    digest is only compared against runs of the same code."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "hyperfill"), HERE):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "runs")
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as fh:
                        h.update(name.encode() + fh.read())
    return h.hexdigest()


def digest_problems(workload, seed, scale, passes):
    """Same code and seed, same bytes: across the passes of this run and
    across runs in this checkout (the first digest seen is kept in runs/)."""
    problems = [("digest", "pass %d digest differs from pass 1" % (i + 1))
                for i, p in enumerate(passes) if p.digest != passes[0].digest]
    path = os.path.join(RUNS, "digests.json")
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except (FileNotFoundError, ValueError):
        seen = {}
    key = "%s|%s|%d|%s" % (workload, scale, seed, code_hash()[:16])
    if key in seen and seen[key] != passes[0].digest:
        problems.append(("digest", "digest %s differs from an earlier "
                         "run's %s" % (passes[0].digest[:12],
                                       seen[key][:12])))
    elif key not in seen:
        seen[key] = passes[0].digest
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return problems


# -- provenance and traced metrics ----------------------------------------

def provenance():
    import numpy
    import scipy
    import hyperfill

    def cache_bytes(level):
        # getconf asks the C library, which reads the CPU's own tables.
        try:
            out = subprocess.run(["getconf", "LEVEL%d_CACHE_SIZE" % level],
                                 capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    blas = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas["library"] = "%s %s" % (dep.get("name"), dep.get("version"))
    except (KeyError, TypeError, ValueError):
        blas["library"] = None
    return {
        "backend": hyperfill.BACKEND,
        "hyperfill": hyperfill.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
    }


def working_set_mb(counts):
    """Computed MB of the edge-membership CSR matrices: 16 bytes per
    nonzero (value and column index) and 8 per row pointer."""
    nnz = sum(v for k, v in counts.items() if k.endswith("edge_nnz"))
    rows = sum(v for k, v in counts.items() if k.endswith("E"))
    return (16 * nnz + 8 * rows) / 2**20


def layer_metrics(tracer, traced, untraced_wall):
    """Per-module metrics from the traced pass; see NOTES.md."""
    summ = tracer.summary()

    def s(label, key="self_s"):
        return summ.get(label, {}).get(key, 0)

    c = traced.counts
    part_calls = s("calculus.partition", "calls")
    # A solve is certified when it returned and passed its checks
    # (converged, gap within tol, feasible, LP oracle at p = 1).
    failed = traced.failed_ops()
    solves = [op for op in traced.values if op.startswith("hajlasz[")]
    gaps = [traced.values[op]["gap"] for op in solves if op not in failed]
    solves += [op for op, _ in traced.raised if op.startswith("hajlasz[")]
    sweeps = tracer.count_under("kernels.sweep", "hajlasz.solve")
    pairs = sum(v for k, v in c.items() if k.endswith(".pairs"))
    per_sweep_pairs = sum(
        c.get(k[:-len(".pairs")] + ".iterations", 0) * v
        for k, v in c.items() if k.endswith(".pairs"))
    m = {
        "space.setup_s": s("space.setup"),
        "space.dist_to_subset_s": s("space.dist_to_subset"),
        "space.porosity_s": s("space.porosity"),
        "kernels.greedy_s": s("kernels.greedy"),
        "kernels.greedy_calls": s("kernels.greedy", "calls"),
        "kernels.sweep_s": s("kernels.sweep"),
        "kernels.sweep_calls": s("kernels.sweep", "calls"),
        "kernels.lift_s": s("kernels.lift"),
        "filling.build_s": s("filling.build", "incl_s"),
        "filling.build_self_s": s("filling.build"),
        "filling.edge_membership_s": s("filling.edge_membership"),
        "filling.audit_s": s("filling.audit"),
        "filling.V": sum(v for k, v in c.items() if k.endswith("V")),
        "filling.E": sum(v for k, v in c.items() if k.endswith("E")),
        "filling.ball_nnz": sum(v for k, v in c.items()
                                if k.endswith("ball_nnz")),
        "filling.edge_nnz": sum(v for k, v in c.items()
                                if k.endswith("edge_nnz")),
        "filling.edge_membership_mb_computed": working_set_mb(c),
        "calculus.partition_s": s("calculus.partition"),
        "calculus.partition_calls": part_calls,
        "calculus.partition_hit_frac":
            tracer.partition_hits / part_calls if part_calls else 0.0,
        "calculus.blend_s": s("calculus.blend"),
        "calculus.blend_calls": s("calculus.blend", "calls"),
        "calculus.lift_s": s("calculus.lift"),
        "norms.seq_s": s("norms.seq"),
        "norms.seq_calls": s("norms.seq", "calls"),
        "norms.fn_s": s("norms.fn"),
        "norms.substitute_s": s("norms.substitute"),
        "trace.op_s": s("trace.op") + s("trace.band"),
        "trace.ops": s("trace.op", "calls"),
        "trace.cert_pairs": c.get("cert_pairs", 0),
        "hajlasz.solve_s": s("hajlasz.solve"),
        "hajlasz.iters": sweeps,
        "hajlasz.pairs": pairs,
        "hajlasz.certified_frac": len(gaps) / len(solves) if solves else 0.0,
        "hajlasz.final_gap": max(gaps, default=0.0),
        # Per sweep and pair: read y, m, i, j, g[i], g[j]; write y; two
        # scatter-adds into the row sums.  Computed, not measured.
        "hajlasz.sweep_gb_computed": 72.0 * per_sweep_pairs / 1e9,
        "verify.audit_s": s("verify.audit"),
        "jsonio.dumps_s": s("jsonio.dumps"),
        "jsonio.bytes": traced.payload_bytes,
        "tracing.wall_s": traced.wall_s,
        "tracing.overhead_s": traced.wall_s - untraced_wall,
    }
    return m


LAYER_UNITS = {"_s": "s", "_calls": "count", "_frac": "ratio",
               "_mb_computed": "MB", "_gb_computed": "GB",
               "bytes": "B", "final_gap": "ratio"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# -- main -----------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke size, not comparable")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure(args):
    """Set up, run about ``args.seconds`` of passes, optionally one traced
    pass."""
    setup_main, inputs = timed_setup(args.workload, args.seed, args.scale)
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    setups = [setup_main] + [probe_setup(args.workload, args.seed, args.scale)
                             for _ in range(SETUP_SAMPLES[args.scale] - 1)]

    # A fixed number of passes, so that every run at one --seconds mixes
    # the process's first (cold) pass and later passes in the same way.
    count = max(1, round(args.seconds / wl.pass_seconds))
    passes = []
    for _ in range(count):
        gc.collect()
        passes.append(run_pass(wl, inputs, check=not passes))
        if len(passes) == 1:
            # Later passes reuse freed memory unevenly; the peak is taken
            # over set-up and the first pass only.
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        gc.collect()
        with tracer:
            inputs = wl.setup(args.seed, args.scale)
            traced = run_pass(wl, inputs)
    return dict(setups=setups, passes=passes, peak_rss_mb=peak_rss_mb,
                tracer=tracer, traced=traced)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        seconds, _ = timed_setup(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": seconds}))
        return 0
    res = measure(args)
    os.makedirs(RUNS, exist_ok=True)
    passes = res["passes"]

    # Recorded values and counts are judged on the first pass; digests
    # across every pass, the traced one included (tracing must not change
    # an output byte).
    every = passes + ([res["traced"]] if args.trace else [])
    across = (golden_problems(args.workload, args.seed, args.scale, passes)
              + digest_problems(args.workload, args.seed, args.scale, every))
    wrong = [(op, p) for ps in every for op, p in ps.wrong] + across
    raised = [(op, p) for ps in every for op, p in ps.raised]
    attempted = sum(ps.attempted for ps in every)
    failed = sum(len(ps.failed_ops()) for ps in every[1:])
    failed += len(passes[0].failed_ops() | {op for op, _ in across})

    e2e = {
        "setup_s": statistics.median(res["setups"]),
        "first_result_s": statistics.median(p.first_result_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (attempted - failed) / attempted,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    if args.trace:
        layer = layer_metrics(res["tracer"], res["traced"], e2e["wall_s"])
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layer.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "raised": raised, "wrong": wrong,
        "passes": [{"wall_s": p.wall_s, "first_result_s": p.first_result_s,
                    "check_s": p.check_s, "digest": p.digest}
                   for p in passes],
        "setup_samples_s": res["setups"],
        "counts": passes[0].counts,
        "digest": passes[0].digest,
        "end_to_end": e2e,
        "metrics": metrics,
    }
    record["edge_membership_mb_computed"] = working_set_mb(passes[0].counts)
    if args.trace:
        record["spans"] = res["tracer"].dump()
        record["span_nesting_errors"] = res["tracer"].nesting_errors()
    path = os.path.join(RUNS, "BENCH_%s_seed%d_trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    prov = record["provenance"]
    print("workload %s seed %d scale %s: %d pass(es), backend %s, python %s, "
          "numpy %s, scipy %s, nproc %s, L2 %s B, L3 %s B"
          % (args.workload, args.seed, args.scale, len(passes),
             prov["backend"], prov["python"], prov["numpy"], prov["scipy"],
             prov["nproc"], prov["l2_bytes"], prov["l3_bytes"]))
    print("counts %s" % json.dumps(passes[0].counts, sort_keys=True))
    print("working set: edge-membership CSR %.1f MB (computed)"
          % record["edge_membership_mb_computed"])
    print("digest %s" % passes[0].digest)
    for op, why in raised:
        print("op failed (raised): %s: %s" % (op, why))
    for op, why in wrong:
        print("op failed (check): %s: %s" % (op, why))
    print("attempted %d failed %d fail_frac %.6g"
          % (attempted, failed, failed / attempted))
    for name, m in metrics.items():
        print("%-40s %.9g %s" % (name, m["value"], m["unit"]))
    print("record %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(2)
