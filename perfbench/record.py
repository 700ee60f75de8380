"""Rewrite expected.json: exact counts and the values at the recorded seeds.

    python3 perfbench/record.py [workload ...]

Run only when a change is meant to alter the library's outputs, and say
so in the change.  Solver iteration counts and certificate violations
off the library's pair sample are not recorded: they belong to the
algorithm and to the seed, not to the answer.
"""

import json
import sys

import run

UNRECORDED = (".iterations", "_violations")


def main(argv):
    run.bootstrap()
    import workloads
    names = argv or list(run.WORKLOAD_NAMES)
    doc = run.load_expected()
    for name in names:
        wl = workloads.WORKLOADS[name]
        entry = {"counts": None, "values": {}}
        for seed in run.RECORDED_SEEDS:
            res = run.run_pass(wl, wl.setup(seed, "full"))
            bad = res.raised + res.wrong
            print("%s seed %d: %d ops, %d failed, wall %.2f s"
                  % (name, seed, res.attempted, len(res.failed_ops()),
                     res.wall_s))
            for op, why in bad:
                print("  %s: %s" % (op, why))
            if res.wrong:
                raise SystemExit("refusing to record wrong outputs")
            counts = {k: v for k, v in sorted(res.counts.items())
                      if not k.endswith(UNRECORDED)}
            if entry["counts"] not in (None, counts):
                raise SystemExit("exact counts depend on the seed")
            entry["counts"] = counts
            entry["values"][str(seed)] = {
                op: res.values[op] for op in sorted(res.golden_ops)}
        doc[name] = entry
    with open(run.EXPECTED, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
