"""Metric and workload catalogue; ``BENCHMARK.json`` is generated from it.

    python3 perfbench/spec.py > BENCHMARK.json

Each end-to-end metric carries its unit, direction and regression bound
(the share of the parent's median by which it may worsen); each per-layer
metric its unit, direction, layer, and the end-to-end metric and workload
it should move (``README.md`` renders the same table).
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

RUN_SECONDS = 20

#: Workloads the regression runs cover: (name, why).  ``kv-faults-f1`` is
#: defined in ``workloads.py`` but left out here, see ``README.md``.
WORKLOADS: List[Tuple[str, str]] = [
    ("agree-null-f2",
     "closed loop, 24 clients, null 0/0, f=2, LAN: the agreement hot path "
     "(crypto, auth, messages, replica, Env adapter, network, scheduler)"),
    ("kv-mixed-open",
     "open loop, Poisson 4000 ops/s on 32 clients, KV 50% GET / 50% 2 KB SET, f=1, "
     "checkpoint 16: execution, digests, snapshots, bytes, rate ladder"),
    ("kv-crash-f1",
     "open loop, Poisson 3000 ops/s on 32 clients, KV mix, f=1, primary crash: "
     "view change, client retransmission, timers, outage"),
    ("tree-null-f4",
     "closed loop, 12 clients, null 0/0, f=4 (n=13), tree dissemination: "
     "the only workload on net/overlay.py"),
]

#: (name, unit, better, bound)
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("latency_p50_us", "us", "lower", 0.15),
    ("latency_p99_us", "us", "lower", 0.15),
    ("throughput_ops_s", "ops/s", "higher", 0.15),
    ("max_rate_ops_s", "ops/s", "higher", 0.2),
    ("outage_ms", "ms", "lower", 0.1),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: (name, unit, better, layer, what it should move, on which workload)
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("scheduler.events_per_op", "count", "lower", "sim.scheduler", "cpu_us_per_op; tree-null-f4, agree-null-f2"),
    ("scheduler.pushes_per_op", "count", "lower", "sim.scheduler", "cpu_us_per_op; tree-null-f4, agree-null-f2"),
    ("scheduler.self_us_per_op", "us", "lower", "sim.scheduler", "cpu_us_per_op; tree-null-f4, agree-null-f2"),
    ("env.self_us_per_op", "us", "lower", "library.cluster", "cpu_us_per_op; agree-null-f2"),
    ("env.handlings_per_op", "count", "lower", "library.cluster", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op", "us", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op.Request", "us", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op.PrePrepare", "us", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op.Prepare", "us", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op.Commit", "us", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.self_us_per_op.Checkpoint", "us", "lower", "core.replica", "cpu_us_per_op; kv-mixed-open"),
    ("replica.self_us_per_op.timer", "us", "lower", "core.replica", "cpu_us_per_op; kv-crash-f1"),
    ("replica.msgs_in_per_op", "count", "lower", "core.replica", "cpu_us_per_op; agree-null-f2"),
    ("replica.ops_per_batch", "count", "higher", "core.replica", "max_rate_ops_s, latency_p99_us; kv-mixed-open"),
    ("replica.rejected_per_op", "count", "lower", "core.replica", "cpu_us_per_op; kv-crash-f1"),
    ("replica.primary_busy_frac", "fraction", "lower", "core.replica", "max_rate_ops_s, latency_p99_us; kv-mixed-open"),
    ("viewchange.count", "count", "lower", "core.viewchange", "outage_ms; kv-crash-f1 (zero elsewhere)"),
    ("viewchange.msgs", "count", "lower", "core.viewchange", "outage_ms; kv-crash-f1 (zero elsewhere)"),
    ("viewchange.self_us", "us", "lower", "core.viewchange", "outage_ms; kv-crash-f1 (zero elsewhere)"),
    ("client.self_us_per_op", "us", "lower", "core.client", "latency_p99_us, outage_ms; kv-crash-f1"),
    ("client.retransmissions_per_op", "count", "lower", "core.client", "latency_p99_us, outage_ms; kv-crash-f1"),
    ("auth.self_us_per_op", "us", "lower", "core.auth", "cpu_us_per_op; agree-null-f2"),
    ("auth.signs_per_op", "count", "lower", "core.auth", "cpu_us_per_op; agree-null-f2"),
    ("auth.verifies_per_op", "count", "lower", "core.auth", "cpu_us_per_op; agree-null-f2"),
    ("auth.tag_cache_hit_frac", "fraction", "higher", "core.auth", "cpu_us_per_op; agree-null-f2"),
    ("crypto.macs_per_op", "count", "lower", "crypto", "cpu_us_per_op; agree-null-f2"),
    ("crypto.digest_bytes_per_op", "bytes", "lower", "crypto", "cpu_us_per_op; kv-mixed-open"),
    ("crypto.self_us_per_op", "us", "lower", "crypto", "cpu_us_per_op; agree-null-f2"),
    ("messages.encodes_per_op", "count", "lower", "core.messages", "cpu_us_per_op; agree-null-f2, kv-mixed-open"),
    ("messages.self_us_per_op", "us", "lower", "core.messages", "cpu_us_per_op; agree-null-f2, kv-mixed-open"),
    ("net.msgs_per_op", "count", "lower", "net.network", "cpu_us_per_op; every workload"),
    ("net.bytes_per_op", "bytes", "lower", "net.network", "latency_p50_us; kv-mixed-open"),
    ("net.auth_bytes_per_op", "bytes", "lower", "net.network", "latency_p50_us; tree-null-f4"),
    ("net.coalesced_frac", "fraction", "higher", "net.network", "cpu_us_per_op; every workload"),
    ("net.self_us_per_op", "us", "lower", "net.network", "cpu_us_per_op; every workload"),
    ("overlay.self_us_per_op", "us", "lower", "net.overlay", "cpu_us_per_op; tree-null-f4 only"),
    ("overlay.agreement_msgs_per_batch", "count", "lower", "net.overlay", "cpu_us_per_op; tree-null-f4"),
    ("overlay.fallbacks", "count", "lower", "net.overlay", "latency_p99_us; tree-null-f4"),
    ("service.self_us_per_op", "us", "lower", "services", "cpu_us_per_op; kv-mixed-open"),
    ("service.snapshot_us_per_checkpoint", "us", "lower", "services", "cpu_us_per_op; kv-mixed-open"),
    ("service.pages_per_snapshot", "count", "lower", "services", "cpu_us_per_op; kv-mixed-open"),
    ("statetransfer.catchup_ms", "ms", "lower", "statetransfer", "latency_p99_us; kv-faults-f1 only"),
    ("statetransfer.bytes", "bytes", "lower", "statetransfer", "latency_p99_us; kv-faults-f1 only"),
    ("statetransfer.pages", "count", "lower", "statetransfer", "latency_p99_us; kv-faults-f1 only"),
    ("statetransfer.self_us", "us", "lower", "statetransfer", "cpu_us_per_op; kv-faults-f1 only"),
    ("gc.us_per_op", "us", "lower", "python runtime", "cpu_us_per_op; tree-null-f4"),
    ("gc.collections_per_op", "count", "lower", "python runtime", "cpu_us_per_op; tree-null-f4"),
    ("phase.order_us", "us", "lower", "modeled phases", "latency_p50_us; agree-null-f2, kv-mixed-open"),
    ("phase.agree_us", "us", "lower", "modeled phases", "latency_p50_us; agree-null-f2, kv-mixed-open"),
    ("phase.reply_us", "us", "lower", "modeled phases", "latency_p50_us; agree-null-f2, kv-mixed-open"),
    ("openloop.backlog_max", "count", "lower", "load generator", "latency_p99_us; kv-mixed-open, kv-crash-f1"),
    ("openloop.lateness_max_us", "us", "lower", "load generator", "latency_p99_us; kv-mixed-open, kv-crash-f1"),
    ("latency.samples", "count", "higher", "load generator", "sample count behind latency_p99_us"),
    ("bench.self_us_per_op", "us", "lower", "load generator", "none: the benchmark's own time"),
    ("trace.unattributed_us_per_op", "us", "lower", "tracing", "none: time outside every span"),
    ("trace.overhead_ratio", "ratio", "lower", "tracing", "none: traced / untraced cpu_us_per_op"),
    ("norep.latency_p50_us", "us", "lower", "baselines.unreplicated", "reference for latency_p50_us; agree-null-f2 only"),
    ("norep.cpu_us_per_op", "us", "lower", "baselines.unreplicated", "reference for cpu_us_per_op; agree-null-f2 only"),
]

E2E_UNITS: Dict[str, str] = {name: unit for name, unit, _better, _bound in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, *_rest in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *_rest in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
