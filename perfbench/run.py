"""Run the benchmark: time workloads, apply the gate, print every metric.

From the root of a checkout::

    python3 perfbench/run.py --workload plb-steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics: the workload runs again and
again, each run a fresh ``once.py`` process started after the previous
one ended, until ``--seconds`` have passed (at least four runs), and
each metric is the median over the runs.  ``--trace 1`` prints the
per-layer metrics from two profiled runs, plus one untraced run that
gives the tracing overhead and the report the traced runs must match.
``--workload all`` runs every workload in both modes.

Every line but the last is for people: host facts, one line per run
with the load average before and after it, the gate's findings and the
metrics with their units.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ONCE = os.path.join(HERE, "once.py")

#: Fewest untraced runs per invocation, so a median rests on several.
MIN_RUNS = 4
#: Untraced runs stop here even when ``--seconds`` has time left.
MAX_RUNS = 50
#: Profiled runs per traced invocation; two, so call counts can be compared.
TRACED_RUNS = 2
#: Wall-clock ceiling for one workload's runs in one invocation.
TIME_LIMIT_S = 165


def host_facts():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_once(name, seed, traced, timeout):
    """One workload run in a fresh process; its result, or an error."""
    command = [sys.executable, ONCE, name, str(seed), "1" if traced else "0"]
    # A fixed hash seed keeps set iteration order, and so call counts,
    # the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    load_before = os.getloadavg()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        result = {"error": f"timed out after {timeout:.0f} s"}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            result = {"error": f"exit {proc.returncode}: {tail[0]}"}
        else:
            if proc.returncode != 0 and "error" not in result:
                result = {"error": f"exit {proc.returncode}"}
    result["traced"] = traced
    result["host_s"] = time.monotonic() - started
    result["load"] = [load_before[0], os.getloadavg()[0]]
    return result


def describe(index, result):
    mode = "traced" if result["traced"] else "untraced"
    load = "load {:.2f}->{:.2f}".format(*result["load"])
    if "error" in result:
        return f"  run {index} {mode}: ERROR {result['error']} ({load})"
    failures = sum(len(run["failures"]) for run in result["runs"])
    return (
        f"  run {index} {mode}: wall_s={result['wall_s']:.4f} "
        f"setup_s={result['setup_s']:.6f} run_s={result['run_s']:.4f} "
        f"rss={result['rss_mb']:.1f}MiB ({load}) "
        f"{'ok' if not failures else f'{failures} gate failures'}"
    )


def collect(name, seed, seconds, traced):
    """Every run one invocation makes of one workload, in order."""
    results = []
    start = time.monotonic()

    def budget():
        return TIME_LIMIT_S - (time.monotonic() - start)

    if traced:
        plan = [False] + [True] * TRACED_RUNS
        for run_traced in plan:
            results.append(run_once(name, seed, run_traced, max(1.0, budget())))
            print(describe(len(results) - 1, results[-1]), flush=True)
        return results
    while len(results) < MAX_RUNS:
        elapsed = time.monotonic() - start
        if len(results) >= MIN_RUNS and elapsed >= seconds:
            break
        if results and results[-1]["host_s"] > budget():
            break
        results.append(run_once(name, seed, False, max(1.0, budget())))
        print(describe(len(results) - 1, results[-1]), flush=True)
    return results


def measure(name, seed, seconds, traced):
    """``(metrics, attempted, failed)`` for one workload in one mode."""
    import summary
    import workloads

    print(f"{name} (seed {seed}, {'traced' if traced else 'untraced'}):", flush=True)
    results = collect(name, seed, seconds, traced)
    shards = workloads.WORKLOADS[name].shard_count(seed)
    attempted, failed, notes = summary.tally(results, shards)
    for note in notes:
        print(f"  FAIL {note}")
    untraced = [r for r in results if not r["traced"] and "error" not in r]
    profiled = [r for r in results if r["traced"] and "error" not in r]
    if not untraced or (traced and not profiled):
        return None, attempted, failed
    if traced:
        values = summary.per_layer(untraced, profiled)
    else:
        values = summary.end_to_end(untraced, attempted, failed)
    print(f"  failed_ratio {failed / attempted} ({failed}/{attempted} runs)")
    for key, value in values.items():
        print(f"  {key:<40} {value:<24} {summary.UNITS[key]}")
    return summary.with_units(values), attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload == "all":
        plan = [(name, traced) for name in names for traced in (False, True)]
    elif args.workload in names:
        plan = [(args.workload, bool(args.trace))]
    else:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2

    print("host", json.dumps(host_facts()), flush=True)
    metrics = {}
    attempted = failed = 0
    for name, traced in plan:
        values, tried, lost = measure(name, args.seed, args.seconds, traced)
        attempted += tried
        failed += lost
        if values is None:
            print(f"{name}: no run produced metrics", file=sys.stderr)
            return 1
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: value for key, value in values.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
