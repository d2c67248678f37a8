"""Steadiness check of the benchmark on one commit.

Usage, from the root of a source checkout:

    python3 arfbench/steady.py [--workload NAME ...]

Runs two sets of ten untraced runs of every workload (or of the named
ones), each run with its own seed (seeds 1-10, then 11-20), and prints per
workload and end-to-end metric each set's median and quartiles, the spread
(q3 - q1) / median, and whether the sets agree within the metric's bound
from BENCHMARK.json: both spreads within the bound, the two medians apart
by at most the bound (relative to the first), and the same share of failed
operations in every run.  Then it runs the traced run
twice on one seed and reports whether its counts repeat exactly, whether
its outputs equal those of the untraced run of that seed, and the tracing
overhead (traced against untraced wall_s).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900
SETS = 2
RUNS = 10


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(spec, workload, seed, trace):
    """Result JSON and the output digest line of one run."""
    argv = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(spec["run_seconds"]),
                                    "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] in ("python", "python3") else argv[0]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("run failed (%s seed %d trace %d):\n%s"
                         % (workload, seed, trace, proc.stderr[-2000:]))
    lines = proc.stdout.strip().split("\n")
    digest = next((line.split()[-1] for line in lines if line.startswith("outputs ")), None)
    return json.loads(lines[-1]), digest


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    steady = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            results = []
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                result, digest = run_once(spec, workload, seed, 0)
                results.append(result)
                if seed == 1:
                    untraced_digest, untraced_wall = digest, result["metrics"]["wall_s"]["value"]
                print("  %s seed %d: %s" % (workload, seed, " ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
            sets.append(results)
        print("%s" % workload)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in results])
                     for results in sets]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in stats]
            first, second = stats[0][1], stats[1][1]
            ok = all(s <= bound for s in spreads) and abs(second - first) <= bound * first
            steady = steady and ok
            print("  %-12s %s bound %.2f %s" % (name, "  ".join(
                "median %.4g [q1 %.4g, q3 %.4g] spread %.3f" % (q2, q1, q3, s)
                for (q1, q2, q3), s in zip(stats, spreads)), bound,
                "agree" if ok else "DISAGREE"))
        shares = {(r["failed"], r["attempted"]) for results in sets for r in results}
        ratios = {f / a for f, a in shares}
        same_share = len(ratios) == 1
        steady = steady and same_share
        print("  failed share %s: %s" % ("identical" if same_share else "DIFFERS",
                                         sorted(ratios)))
        traced = [run_once(spec, workload, 1, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                  for r, _ in traced]
        repeat = counts[0] == counts[1]
        same_out = all(d == untraced_digest for _, d in traced)
        steady = steady and repeat and same_out
        traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"]
                                        for r, _ in traced)
        # the traced cli round runs in process, so it is no overhead figure
        overhead = ("n/a (traced in process)" if workload == "cli" else
                    "%.1f%%" % (100.0 * (traced_wall / untraced_wall - 1)))
        print("  traced counts %s; traced outputs %s untraced; tracing overhead "
              "%s (trace.wall_s %.4g s vs wall_s %.4g s, seed 1)" % (
                  "repeat exactly" if repeat else "DIFFER",
                  "equal" if same_out else "DIFFER from",
                  overhead, traced_wall, untraced_wall))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    sys.exit(main())
