"""The repository benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload agree-null-f2 --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports the program from ``src/``.
Each run makes one repetition -- set up a fresh cluster, time one phase,
probe a primary crash, check -- for each of the workload's input streams,
then keeps cycling through the streams until ``--seconds`` of wall time are
used.  It prints human-readable lines followed by one JSON object as the
last line of standard output:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``.  Modeled
  metrics come from the simulator and repeat exactly for a seed; host
  metrics (CPU per op, set-up CPU) are medians over the repetitions, scaled
  to a reference host speed (see ``calibrate.py``).
* ``--trace 1``: the per-layer metrics.  Traced and untraced repetitions
  alternate; wrappers around the public entry points of each layer are
  installed only for the traced ones (see ``tracing.py``), and the spans of the
  first traced repetition are written to ``.perfbench/``.

Exit status 0 means every check passed; 1 means a correctness check
failed (the JSON line says ``"correct": false``); 2 means the benchmark
could not run at all (no program to import, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fewest set-ups whose median gives ``setup_s``; runs with fewer
#: repetitions make extra set-ups at the end.
MIN_SETUPS = 9


@dataclass
class Rep:
    """One repetition: set-up, timed phase, checks."""

    stream: int
    setup_s: float
    cpu_s: float
    ops: int
    attempted: int
    failed: int
    modeled: Dict[str, float]
    counts: Dict[str, float]
    errors: List[str]
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)
    result: object = None
    #: Peak resident memory of the process so far, in MB.
    peak_rss_mb: float = 0.0
    #: Reference-host CPU per unit of this host's CPU during the timed
    #: phase (1.0 when not metered).
    speed: float = 1.0

    @property
    def cpu_us_per_op(self) -> float:
        return self.cpu_s * 1e6 / max(1, self.ops)


def run_rep(workload, seed: int, stream: int, tracer=None) -> Rep:
    """Set up, time one phase, probe, check.  A ``tracer`` is installed for
    the whole repetition and records only during the timed phase."""
    from perfbench import calibrate
    from perfbench.checks import check_phase, settle_and_check_replicas
    from perfbench.workloads import counter_delta, crash_probe, program_counters, rep_modeled

    if tracer is not None:
        tracer.install()
    try:
        setup_s, ctx = time_setup(workload, seed, stream)
        gc.collect()
        before = program_counters(ctx.cluster)
        if tracer is not None:
            tracer.begin(ctx)
        meter = None if tracer is not None else calibrate.Meter()
        ctx.driver.between_events = meter
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = workload.timed(ctx)
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        ctx.driver.between_events = None
        speed = 1.0
        if meter is not None:
            cpu_s -= meter.cpu_s
            speed = meter.factor()
        layers = {}
        if tracer is not None:
            tracer.end()
            layers = tracer.layer_metrics(ctx, result, wall_s)
        counts = counter_delta(before, program_counters(ctx.cluster))
        outage = result
        if workload.probe_op is not None:
            outage = crash_probe(ctx, workload.probe_op(ctx))
        errors, failed = check_phase(ctx, result)
        if outage is not result:
            errors += check_phase(ctx, outage)[0]
        errors += settle_and_check_replicas(ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Rep(
        stream=stream,
        setup_s=setup_s,
        cpu_s=cpu_s,
        ops=result.done,
        attempted=len(result.issued),
        failed=failed,
        modeled=rep_modeled(ctx, result, outage),
        counts=counts,
        errors=errors,
        traced=tracer is not None,
        layers=layers,
        result=result,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        speed=speed,
    )


def determinism_errors(reps: List[Rep]) -> List[str]:
    """A repetition of an input stream must reproduce the modeled figures
    and program counters of its first repetition exactly."""
    first: Dict[int, Rep] = {}
    errors = []
    for index, rep in enumerate(reps):
        reference = first.setdefault(rep.stream, rep)
        if reference is rep:
            continue
        if rep.modeled != reference.modeled:
            errors.append(f"repetition {index}: modeled figures differ from stream {rep.stream}'s first")
        if rep.counts != reference.counts:
            keys = sorted(k for k in rep.counts if rep.counts[k] != reference.counts.get(k))
            errors.append(f"repetition {index}: counters differ from stream {rep.stream}'s first: {keys[:5]}")
    return errors


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        from perfbench.tracing import traced_run
        return traced_run(workload, args.seed, args.seconds)
    return untraced_run(workload, args.seed, args.seconds)


def time_setup(workload, seed: int, stream: int):
    """Build one context; returns (process CPU seconds of the set-up, ctx).

    Whatever the benchmark holds from earlier repetitions is frozen out of
    the collector first, so that collections during this repetition cost
    what they would in a fresh process."""
    gc.collect()
    gc.freeze()
    started = time.process_time()
    ctx = workload.build(f"{seed}.{stream}")
    return time.process_time() - started, ctx


def repeat(workload, seed: int, seconds: float, streams: List[int], min_reps: int,
           make_tracer=None, rep_time: float = 0.0) -> List[Rep]:
    """Cycle through ``streams``, one repetition each, until ``min_reps``
    are done and the next one -- taking about as long as the last, or
    ``rep_time`` before the first -- would overrun ``seconds``.
    ``make_tracer(index)`` returns a tracer for the repetitions that should
    be traced, or None."""
    started = time.perf_counter()
    reps: List[Rep] = []
    while len(reps) < min_reps or time.perf_counter() - started + rep_time <= seconds:
        tracer = make_tracer(len(reps)) if make_tracer is not None else None
        rep_started = time.perf_counter()
        reps.append(run_rep(workload, seed, streams[len(reps) % len(streams)], tracer))
        rep_time = time.perf_counter() - rep_started
    return reps


def untraced_run(workload, seed: int, seconds: float) -> int:
    from perfbench.loadgen import backlog_grows
    from perfbench.spec import E2E_UNITS
    from perfbench.workloads import p99_of, pooled_modeled

    started = time.perf_counter()
    streams = list(range(workload.streams))
    reps = repeat(workload, seed, 0.0, streams, len(streams))
    per_rep = (time.perf_counter() - started) / len(streams)
    errors = [e for rep in reps for e in rep.errors]
    results = [rep.result for rep in reps]
    modeled = pooled_modeled(results, [rep.modeled for rep in reps])
    max_rate = modeled["throughput_ops_s"]
    rungs: list = []
    if workload.ladder is not None and not errors:
        max_rate, rungs = workload.ladder(
            seed, p99_of(results), any(backlog_grows(result) for result in results)
        )
    if not errors:
        remaining = seconds - (time.perf_counter() - started)
        reps += repeat(workload, seed, remaining, streams, 0, rep_time=per_rep)
    errors = [e for rep in reps for e in rep.errors] + determinism_errors(reps)
    speed = statistics.median(r.speed for r in reps)
    setups = [r.setup_s * r.speed for r in reps]
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(workload, seed, len(setups) % workload.streams)[0] * speed)
    metrics = {
        "latency_p50_us": modeled["latency_p50_us"],
        "latency_p99_us": modeled["latency_p99_us"],
        "throughput_ops_s": modeled["throughput_ops_s"],
        "max_rate_ops_s": max_rate,
        "outage_ms": modeled["outage_ms"],
        "cpu_us_per_op": statistics.median(r.cpu_us_per_op * r.speed for r in reps),
        "setup_s": statistics.median(setups),
        # After the first repetition: one cluster's set-up, timed phase and
        # probe.  Later repetitions only add allocator fragmentation.
        "peak_rss_mb": reps[0].peak_rss_mb,
    }
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"workload {workload.name} ({workload.loop} loop, {workload.pool} clients, f={workload.f}), "
          f"seed {seed}: {len(reps)} repetitions over {len(streams)} input streams")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]}")
    print(f"  raw host times: cpu_us_per_op {statistics.median(r.cpu_us_per_op for r in reps):.6g} us, "
          f"setup_s {statistics.median(r.setup_s for r in reps):.6g} s; host speed factor {speed:.4f}")
    print(f"  error_rate = {failed / max(1, attempted):.6g} ({failed} of {attempted} ops)")
    print(f"  latency samples = {sum(r.ops for r in reps[:len(streams)])}")
    for rate, p99, grows in rungs:
        print(f"  ladder rung {rate} ops/s: p99 {p99:.1f} us, backlog growing: {grows}")
    for key, value in sorted(reps[0].modeled.items()):
        if key.startswith("mark."):
            print(f"  stream 0: {key[5:]} at {value:.1f} us")
    for message in errors[:20]:
        print(f"  CHECK FAILED: {message}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
