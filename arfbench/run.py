"""Benchmark of arfcurves: one workload, one seed, one JSON result.

Usage, from the root of a source checkout:

    python3 arfbench/run.py --workload curve-trees --seed 1 --seconds 25 --trace 0

Workloads: cli, curve-trees, curve-values, combinatorics (see README.md).
The workload's operations form one round, built from the seed; a run
repeats whole rounds, each on freshly parsed inputs, as long as another
round fits in --seconds (and until at least MIN_OPS operations ran).
Without tracing, each round is followed by set-up starts for a quarter of
its wall time, so that the set-up samples spread over the whole run.
Outputs of the first round are checked against independent oracles after
the timed phase, and every later round must reproduce them.

--trace 0 reports the end-to-end metrics; --trace 1 wraps the package's
layers, runs the same rounds (command-line calls in process) and reports
the per-layer metrics.  Before the last line, which is the JSON result,
come one line per failed operation, one with each round's wall time and
latency percentiles, one with a digest of the outputs and, without
tracing, one with the set-up start times.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
MIN_OPS = 100
SETUP_SHARE = 0.25
CLI_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "curve-trees", "curve-values", "combinatorics"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import arfcurves and build the inputs (times set-up)")
    return parser.parse_args(argv)


def run_rounds(ops, runners, seconds, execute, on_round=None):
    """Whole rounds for about `seconds`, and at least MIN_OPS operations.

    Returns per-op latencies (s), per-round wall times (s), the first
    round's outputs and errors, and the (round, index) of later outputs
    that differ from the first round's.
    """
    latencies, walls, drift = [], [], []
    first = None
    begin = time.perf_counter()
    while True:
        outputs, errors = [], []
        round_start = time.perf_counter()
        for op in ops:
            args = execute.resolve(op, outputs)
            start = time.perf_counter()
            try:
                if args is None:
                    raise RuntimeError("input depends on a failed operation")
                out, err = getattr(runners, op["kind"])(args), None
            except Exception as exc:  # any exception is a failed operation
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            latencies.append(time.perf_counter() - start)
            outputs.append(out)
            errors.append(err)
        walls.append(time.perf_counter() - round_start)
        if on_round is not None:
            on_round(walls[-1])
        if first is None:
            first = (outputs, errors)
        else:
            for i, (a, b) in enumerate(zip(first[0], outputs)):
                if execute.digest([a]) != execute.digest([b]):
                    drift.append((len(walls) - 1, i))
        # stop when one more round of the mean length would end past `seconds`
        elapsed = time.perf_counter() - begin
        if len(latencies) >= MIN_OPS and elapsed * (len(walls) + 1) / len(walls) > seconds:
            return latencies, walls, first, drift


def check_round(ops, first, execute):
    """Reasons of the first round's failed operations, by index."""
    outputs, errors = first
    reasons = {}
    for i, op in enumerate(ops):
        if errors[i] is not None:
            reasons[i] = "exception " + errors[i]
        else:
            reason = execute.check(op, outputs[i], outputs)
            if reason is not None:
                reasons[i] = reason
    return reasons


def run_probe(argv, env=None):
    """Stdout of a child that must succeed.  Its output is read through a
    pipe: with a timeout and no pipe, waiting for the child polls with
    sleeps of up to 50 ms, which would quantize every start time."""
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s failed: %s" % (argv[:3], proc.stderr[-500:]))
    return proc.stdout


def setup_starts(workload, seed, seconds, times):
    """Append to `times` the wall times of fresh interpreters that import
    arfcurves and build the workload's inputs: at least one, and as many
    as fit in `seconds`."""
    argv = [sys.executable, os.path.join("arfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        run_probe(argv)
        times.append(time.perf_counter() - start)
        if time.perf_counter() - begin >= seconds:
            return


def cli_layer():
    """Interpreter start, import of arfcurves.cli, and modules loaded by one
    command, each in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)

    def median_start(code):
        times = []
        for _ in range(CLI_PROBES):
            start = time.perf_counter()
            run_probe([sys.executable, "-c", code], env)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    bare = median_start("pass")
    imported = median_start("import arfcurves.cli")
    probe = run_probe([sys.executable, "-c",
                       "import sys\nfrom arfcurves.cli import main\nmain(['closure','4','6','13'])\n"
                       "print(len(sys.modules))"], env)
    return {"cli.interpreter_ms": (bare * 1e3, "ms"),
            "cli.import_ms": ((imported - bare) * 1e3, "ms"),
            "cli.modules_loaded": (int(probe.split()[-1]), "count")}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arfcurves", "__init__.py")):
        print("error: run from the root of an arfcurves checkout (no src/arfcurves here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from arfbench import workloads
    if args.setup_probe:
        import arfcurves  # noqa: F401
        workloads.build(args.workload, args.seed)
        return 0
    from arfbench import execute
    from arfbench.layers import Tracer

    ops = workloads.build(args.workload, args.seed)
    runners = execute.Runners(SRC, in_process=bool(args.trace))
    if args.trace:
        metrics = {}
        tracer = Tracer()
        tracer.install()
        counts, times = [], []

        def on_round(wall):
            counts.append(tracer.counts())
            times.append(tracer.times())
            tracer.reset()

        try:
            latencies, walls, first, drift = run_rounds(ops, runners, args.seconds,
                                                        execute, on_round)
        finally:
            tracer.uninstall()
        for name, value in counts[0].items():
            metrics[name] = (value, "count")
        for name in times[0]:
            metrics[name] = (statistics.median(t[name] for t in times), "s")
        metrics["trace.wall_s"] = (statistics.median(walls), "s")
        metrics.update(cli_layer())
        unsteady = [i for i, c in enumerate(counts) if c != counts[0]]
    else:
        setup_times = []
        latencies, walls, first, drift = run_rounds(
            ops, runners, args.seconds, execute,
            lambda wall: setup_starts(args.workload, args.seed, SETUP_SHARE * wall,
                                      setup_times))
        # the set-up starts are children too, so the invocations keep their own
        peak_kb = (runners.cli_maxrss_kb if args.workload == "cli"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        deciles = statistics.quantiles(latencies, n=10)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
            "op_ms_p90": (deciles[8] * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        unsteady = []

    reasons = check_round(ops, first, execute)
    rounds = len(walls)
    # an operation that fails in the first round fails in every round; one
    # that passes there fails in each later round whose output differs
    drifted = [(r, i) for r, i in drift if i not in reasons]
    failed = len(reasons) * rounds + len(drifted)
    for r, i in drifted:
        reasons.setdefault(i, "round %d output differs from round 0" % r)
    known = {tuple(argv) for argv in workloads.KNOWN_FAULTS}
    correct = not unsteady
    for i in sorted(reasons):
        op = ops[i]
        is_known = op["kind"] == "cli" and tuple(op["args"]["argv"]) in known
        correct = correct and is_known
        print("FAILED %s op %d %s %s: %s%s" % (
            args.workload, i, op["kind"], json.dumps(op["args"], sort_keys=True)[:300],
            reasons[i], " (known fault)" if is_known else ""))
    for i in unsteady:
        print("UNSTEADY %s round %d counts differ from round 0" % (args.workload, i))
    per_round = [latencies[r * len(ops):(r + 1) * len(ops)] for r in range(rounds)]
    print("rounds %s wall_s %s p50_ms %s p90_ms %s" % (args.workload, " ".join(
        "%.4f" % w for w in walls), " ".join(
        "%.4f" % (statistics.median(r) * 1e3) for r in per_round), " ".join(
        "%.4f" % (statistics.quantiles(r, n=10)[8] * 1e3) for r in per_round)))
    print("outputs %s rounds %d ops/round %d sha256 %s" % (
        args.workload, rounds, len(ops),
        hashlib.sha256(execute.digest(first[0]).encode()).hexdigest()))

    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        print("setup %s starts %d s %s" % (args.workload, len(setup_times), " ".join(
            "%.4f" % t for t in setup_times)))
    result = {
        "correct": correct,
        "attempted": len(ops) * rounds,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
