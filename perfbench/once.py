"""Run one benchmark workload once in this process; print the result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/once.py <workload> <seed> <traced: 0|1>

``run.py`` starts one such process per measured run, so every run gets a
fresh interpreter and its own ``ru_maxrss``.  The last line of standard
output is the result; a run that raises prints the error there instead.
"""

import json
import os
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

# Modules the build and run paths import lazily, imported here so that
# no import lands inside a timed region.
import repro.controlplane.migration  # noqa: E402,F401
import repro.controlplane.snapshot  # noqa: E402,F401
import repro.core.ratelimit  # noqa: E402,F401
import repro.cpu.service  # noqa: E402,F401
import repro.fleet.report  # noqa: E402,F401
import repro.topology  # noqa: E402,F401
import repro.workloads.generators  # noqa: E402,F401
import repro.workloads.microburst  # noqa: E402,F401


def main(argv):
    name, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    tracer = workloads.Tracer(traced)
    try:
        result = workloads.execute(workloads.WORKLOADS[name], seed, tracer)
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        return 0
    if traced:
        result["profile"] = layers.summarize(tracer.profiles)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
