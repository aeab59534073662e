"""Set-up, timed passes, traced passes and the result line.

One run of one workload:

1. Set-up, repeated ``SETUP_REPEATS`` times: make the inputs and run one
   untimed warm-up pass.  ``setup_s`` is the start-up and import time of
   the process plus the median repeat.  The first warm-up output is checked
   in full.
2. Timed passes, each after a ``gc.collect()``, until ``--seconds`` have
   passed and at least ``MIN_PASSES`` ran.  ``records_per_s`` divides the
   records of one pass by the median pass time.
3. With ``--trace 1`` untraced and traced passes alternate instead, and the
   per-layer metrics are the medians over the traced passes.

The times of steps 1 and 2 are taken under :class:`speed.SpeedProbe` and
are reference seconds: wall time corrected by the machine's speed sampled
during the same work.  The per-layer times of step 3 are wall times.  Every
pass must reproduce the first warm-up pass's output digest.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import assort_mnl

from checks import CheckError
from speed import SpeedProbe
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import WORKLOADS

SETUP_REPEATS = 3
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB"}


def _wall_pass(workload):
    gc.collect()
    t0 = time.perf_counter()
    output = workload.run_pass()
    return time.perf_counter() - t0, output


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path, imports_s: float, **size):
    """Run one workload (raises CheckError on a wrong output).

    Returns the result object and, for the report, the number of timed
    passes and the machine's median speed over them (None when traced).
    """
    setups = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        with SpeedProbe() as setup:
            workload = WORKLOADS[name](seed, workdir, **size)
            workload.make_inputs()
            output = workload.run_pass()
        setups.append(setup.reference_s)
        result = workload.inspect(output)
        if repeat == 0:
            workload.check(output)
            digest = result.digest
        elif result.digest != digest:
            raise CheckError(f"set-up {repeat + 1} produced other output than set-up 1")

    attempted = failed = 0
    plain, traced, layers, speeds = [], [], [], []
    tracer = Tracer(assort_mnl) if trace else None
    start = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - start < seconds:
        if tracer is None:
            gc.collect()
            with SpeedProbe() as timed:
                output = workload.run_pass()
            plain.append(timed.reference_s)
            speeds.append(timed.speed)
            outputs = [output]
        else:
            elapsed, output = _wall_pass(workload)
            plain.append(elapsed)
            tracer.reset()
            with tracer:
                elapsed, traced_output = _wall_pass(workload)
            traced.append(elapsed)
            layers.append(layer_metrics(tracer))
            outputs = [output, traced_output]
        for output in outputs:
            result = workload.inspect(output)
            if result.digest != digest:
                raise CheckError(f"pass {len(plain) + len(traced)} produced other output than set-up")
            attempted += workload.records_per_pass
            failed += result.failed

    if tracer is not None:
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.pass_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.pass_s"] - statistics.median(plain)
        units = LAYER_METRICS
    else:
        values = {
            "setup_s": imports_s + statistics.median(setups),
            "records_per_s": result.records / statistics.median(plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, {"passes": len(plain), "speed": statistics.median(speeds) if speeds else None}


def main(argv, root: Path, imports_s: float) -> int:
    """``imports_s``: reference seconds from process start until this module was imported."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, imports_s)
    except CheckError as e:
        print(f"perfbench: {args.workload}: wrong output: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {result['attempted']} records, failed {result['failed']}, "
          f"{info['passes']} timed passes")
    if info["speed"] is not None:
        print(f"{args.workload} machine speed (median over passes) = {info['speed']:.3f} of reference")
    print(json.dumps(result))
    return 0
