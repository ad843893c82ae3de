"""The four benchmark workloads.

Every workload is built through the public API of
``repro.library.BFTCluster`` and split into an untimed set-up (cluster
build, preload, warm-up), a timed phase, and -- except on ``kv-crash-f1``
and ``kv-faults-f1``, whose timed phase already crashes the primary -- an
untimed crash probe that gives ``outage_ms``.

Inputs -- client start offsets, think times, Poisson arrival times, keys,
values and the GET/SET mix -- come from ``random.Random`` streams keyed by
``<seed>.<stream>``: a run measures ``Workload.streams`` input streams of
its ``--seed`` and pools them.  The cluster itself always gets the same
simulator seed, so the program only sees the generated inputs.

See ``perfbench/README.md`` for why each workload exists and what the fault
schedule of ``kv-faults-f1`` does.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.baselines.unreplicated import UnreplicatedCluster
from repro.core.config import DEFAULT_OPTIONS
from repro.library import BFTCluster
from repro.services import KeyValueStore, NullService
from repro.services.null_service import encode_null_op
from repro.sim.events import EventKind

from perfbench.loadgen import (
    ClosedLoop,
    LoadDriver,
    OpenLoop,
    PhaseResult,
    backlog_grows,
    climb_ladder,
    percentile,
    poisson_offsets,
)

#: The null 0/0 operation: no argument, empty result.
NULL_OP = encode_null_op(result_size=0, arg_size=0)

PRELOAD_KEYS = 2000
HOT_KEYS = 256
VALUE_SIZE = 2048
KV_POOL = 32
KV_CHECKPOINT_INTERVAL = 16


def _key(index: int) -> bytes:
    return b"k%05d" % index


def _pad(tag: bytes) -> bytes:
    return tag + b"v" * (VALUE_SIZE - len(tag))


class KvMix:
    """50% ``GET`` on the read-only path over every preloaded key, 50% 2 KB
    ``SET`` over a seeded set of hot keys.  Remembers every value it asked
    to write, which is what a ``GET`` may legally return."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.hot = sorted(rng.sample(range(PRELOAD_KEYS), HOT_KEYS))
        self.written: Dict[bytes, Set[bytes]] = {
            _key(i): {_pad(b"preload-" + _key(i))} for i in range(PRELOAD_KEYS)
        }
        self._sets = 0

    def preload_ops(self) -> List[bytes]:
        return [
            b"SET " + _key(i) + b" " + _pad(b"preload-" + _key(i))
            for i in range(PRELOAD_KEYS)
        ]

    def next(self) -> Tuple[bytes, bool]:
        rng = self.rng
        if rng.random() < 0.5:
            return b"GET " + _key(rng.randrange(PRELOAD_KEYS)), True
        key = _key(rng.choice(self.hot))
        self._sets += 1
        value = _pad(b"set-%08d" % self._sets)
        self.written[key].add(value)
        return b"SET " + key + b" " + value, False


@dataclass
class Context:
    """One built cluster with its load driver and input streams."""

    cluster: BFTCluster
    driver: LoadDriver
    #: ``<seed>.<stream>``: keys every random stream of this repetition.
    key: str
    mix: Optional[KvMix] = None
    #: Modeled times (µs) of the faults: partition, heal, catch-up, crash.
    marks: Dict[str, float] = field(default_factory=dict)
    #: Replicas that are faulty now (excluded from the agreement check).
    faulty: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    f: int
    pool: int
    #: Input streams pooled per run (one repetition each, at least).
    streams: int
    build: Callable[[str], Context]
    timed: Callable[[Context], PhaseResult]
    #: Operations for the crash probe; None where the timed phase already
    #: crashes the primary.
    probe_op: Optional[Callable[[Context], Callable[[int, int], Tuple[bytes, bool]]]] = None
    #: Runs the rate ladder and returns (max_rate_ops_s, rungs), or None
    #: where ``max_rate_ops_s`` is the sustained completion rate.
    ladder: Optional[Callable[[int, float, bool], Tuple[float, list]]] = None
    #: The same load on the unreplicated baseline, for the traced run.
    norep: Optional[Callable[[int], Dict[str, float]]] = None


#: Mean think time of a closed-loop client, in modeled µs.
THINK_US = 100.0


def _closed_loop(driver: LoadDriver, rng: random.Random, ops_per_client: int,
                 make_op: Callable[[int, int], Tuple[bytes, bool]]) -> ClosedLoop:
    """A closed loop whose start offsets and think times come from ``rng``."""
    pool = len(driver.clients)
    offsets = [rng.uniform(0.0, 1000.0) for _ in range(pool)]
    think = [[rng.expovariate(1.0 / THINK_US) for _ in range(ops_per_client)]
             for _ in range(pool)]
    return ClosedLoop(driver, ops_per_client, make_op, offsets, think)


# ------------------------------------------------------------ null closed loops
def _null_op(_client: int, _op: int) -> Tuple[bytes, bool]:
    return NULL_OP, False


def _null_build(f: int, pool: int, options, warmup_ops: int) -> Callable[[str], Context]:
    def build(key: str) -> Context:
        cluster = BFTCluster.create(
            f=f, service_factory=NullService, checkpoint_interval=128, options=options
        )
        driver = LoadDriver(cluster, pool)
        driver.run_phase(_closed_loop(driver, random.Random(f"warmup:{key}"), warmup_ops, _null_op))
        return Context(cluster, driver, key)
    return build


def _null_timed(ops_per_client: int) -> Callable[[Context], PhaseResult]:
    def timed(ctx: Context) -> PhaseResult:
        rng = random.Random(f"timed:{ctx.key}")
        return ctx.driver.run_phase(_closed_loop(ctx.driver, rng, ops_per_client, _null_op))
    return timed


def _null_norep(pool: int, warmup_ops: int, ops_per_client: int) -> Callable[[int], Dict[str, float]]:
    """The null closed loop on ``baselines/unreplicated.py`` (the paper's
    NO-REP column): modeled p50 and the median CPU per op of three runs."""
    def norep(seed: int) -> Dict[str, float]:
        key = f"{seed}.0"
        cpu, p50 = [], []
        for _ in range(3):
            cluster = UnreplicatedCluster(service_factory=NullService)
            driver = LoadDriver(cluster, pool)
            driver.run_phase(_closed_loop(driver, random.Random(f"warmup:{key}"), warmup_ops, _null_op))
            gc.collect()
            started = time.process_time()
            result = driver.run_phase(
                _closed_loop(driver, random.Random(f"timed:{key}"), ops_per_client, _null_op)
            )
            cpu.append((time.process_time() - started) * 1e6 / result.done)
            p50.append(percentile(latencies([result]), 0.5))
        return {"norep.latency_p50_us": p50[0], "norep.cpu_us_per_op": statistics.median(cpu)}
    return norep


# ------------------------------------------------------------------ KV open loop
def _kv_build(key: str) -> Context:
    cluster = BFTCluster.create(
        f=1, service_factory=KeyValueStore, checkpoint_interval=KV_CHECKPOINT_INTERVAL
    )
    mix = KvMix(random.Random(f"keys:{key}"))
    for operation in mix.preload_ops():
        for service in cluster.services.values():
            service.execute(operation, "preload")
    driver = LoadDriver(cluster, KV_POOL)
    driver.run_phase(_closed_loop(driver, random.Random(f"warmup:{key}"), 4, _kv_op(mix)))
    return Context(cluster, driver, key, mix=mix)


def _kv_op(mix: KvMix) -> Callable[[int, int], Tuple[bytes, bool]]:
    return lambda _client, _op: mix.next()


def _arrivals(mix: KvMix, rng: random.Random, rate: float, count: int):
    return [(offset, *mix.next()) for offset in poisson_offsets(rng, rate, count)]


KV_RATE = 4000
KV_OPS = 3000
#: Operations per ladder rung other than ``KV_RATE``, whose p99 comes from
#: the pooled timed phases.
RUNG_OPS = 5000


def _kv_timed(ctx: Context) -> PhaseResult:
    rng = random.Random(f"arrivals:{ctx.key}:{KV_RATE}")
    return ctx.driver.run_phase(OpenLoop(ctx.driver, _arrivals(ctx.mix, rng, KV_RATE, KV_OPS)))


def _kv_ladder(seed: int, p99: float, grows: bool) -> Tuple[float, list]:
    """Climb the rate ladder from ``KV_RATE``, whose ``(p99, grows)`` the
    caller measured; each other rung is one fresh cluster."""
    def run_rung(rate: int) -> Tuple[float, bool]:
        key = f"{seed}.ladder"
        ctx = _kv_build(key)
        rng = random.Random(f"arrivals:{key}:{rate}")
        result = ctx.driver.run_phase(
            OpenLoop(ctx.driver, _arrivals(ctx.mix, rng, rate, RUNG_OPS))
        )
        return p99_of([result]), backlog_grows(result)

    return climb_ladder(run_rung, KV_RATE, known=(p99, grows))


# ------------------------------------------------------------ KV fault schedules
FAULT_RATE = 3000
FAULT_OPS = 3000
LAGGING = "replica3"
PRIMARY = "replica0"
#: Modeled µs after the timed phase starts at which the first fault begins.
FIRST_FAULT_AT_US = 20_000.0
#: Modeled µs between the healed backup catching up and the primary crash.
CRASH_AFTER_CATCHUP_US = 20_000.0
POLL_US = 1_000.0
#: Modeled µs a fault phase may run past its last arrival before the
#: requests still open count as failed.
DRAIN_LIMIT_US = 10_000_000.0


class FaultSchedule:
    """The fault schedule of the two fault workloads, in modeled time.

    With ``lagging_backup`` (``kv-faults-f1``): partition a backup from every
    other node until the others' stable checkpoint is more than a log window
    ahead of its own, heal it, wait until it has caught up by state transfer
    (a completed transfer and ``last_executed`` at the others' stable
    checkpoint), then crash the primary.  Without it (``kv-crash-f1``): crash
    the primary ``FIRST_FAULT_AT_US`` into the phase.

    Conditions are polled every ``POLL_US`` by a scheduler callback, so the
    schedule is deterministic for a given input stream, and at most one
    replica is faulty at any time."""

    def __init__(self, ctx: Context, phase: OpenLoop, lagging_backup: bool) -> None:
        self.ctx = ctx
        self.cluster = ctx.cluster
        self.phase = phase
        self.state = "before-partition" if lagging_backup else "caught-up"
        #: Modeled time from which the primary may crash.
        self.crash_at = phase.start + FIRST_FAULT_AT_US

    def start(self) -> None:
        self._schedule(self.cluster.now + POLL_US)

    def _schedule(self, when: float) -> None:
        self.cluster.scheduler.schedule_at(when, EventKind.INTERNAL, PRIMARY, callback=self._poll)

    def _poll(self) -> None:
        cluster = self.cluster
        now = cluster.now
        marks = self.ctx.marks
        lagging = cluster.replicas[LAGGING]
        others_stable = min(
            r.stable_checkpoint_seq for rid, r in cluster.replicas.items() if rid != LAGGING
        )
        if self.state == "before-partition":
            if now >= self.phase.start + FIRST_FAULT_AT_US:
                cluster.conditions.isolate(LAGGING, set(cluster.network.endpoints()))
                marks["partition"] = now
                self.ctx.faulty = (LAGGING,)
                self.state = "partitioned"
        elif self.state == "partitioned":
            if others_stable > lagging.stable_checkpoint_seq + cluster.config.log_size:
                cluster.conditions.heal_all()
                marks["heal"] = now
                self.state = "healed"
        elif self.state == "healed":
            if (
                lagging.state_transfer.metrics.transfers_completed >= 1
                and lagging.last_executed >= others_stable
            ):
                marks["caught_up"] = now
                self.crash_at = now + CRASH_AFTER_CATCHUP_US
                self.ctx.faulty = ()
                self.state = "caught-up"
        elif self.state == "caught-up":
            if now >= self.crash_at:
                cluster.crash_replica(PRIMARY)
                marks["crash"] = now
                self.ctx.faulty = (PRIMARY,)
                self.state = "crashed"
                return
        self._schedule(now + POLL_US)


def _fault_timed(lagging_backup: bool) -> Callable[[Context], PhaseResult]:
    def timed(ctx: Context) -> PhaseResult:
        rng = random.Random(f"arrivals:{ctx.key}:{FAULT_RATE}")
        arrivals = _arrivals(ctx.mix, rng, FAULT_RATE, FAULT_OPS)
        phase = OpenLoop(ctx.driver, arrivals)
        schedule = FaultSchedule(ctx, phase, lagging_backup)
        ctx.driver.phase = phase
        phase.begin()
        schedule.start()
        ctx.cluster.run(stop_when=ctx.driver.stop_condition(phase),
                        until=phase.start + arrivals[-1][0] + DRAIN_LIMIT_US)
        ctx.driver.phase = None
        if schedule.state != "crashed":
            raise RuntimeError(f"fault schedule stopped in state {schedule.state!r}")
        return phase.result()
    return timed


# ------------------------------------------------------------------ crash probe
#: Modeled µs into the probe at which the primary crashes.
PROBE_CRASH_US = 500.0
PROBE_OPS_PER_CLIENT = 2


def crash_probe(ctx: Context, make_op: Callable[[int, int], Tuple[bytes, bool]]) -> PhaseResult:
    """After the timed phase: every client of the pool issues
    ``PROBE_OPS_PER_CLIENT`` operations while the primary crashes
    ``PROBE_CRASH_US`` in.  ``outage_ms`` is the longest completion gap
    that ends after the crash, the same definition as on ``kv-crash-f1``."""
    cluster = ctx.cluster
    primary = cluster.config.primary_of(cluster.agreement_view())
    crash_at = cluster.now + PROBE_CRASH_US
    cluster.crash_replica(primary, at=crash_at)
    ctx.marks["crash"] = crash_at
    ctx.faulty = (primary,)
    rng = random.Random(f"probe:{ctx.key}")
    phase = _closed_loop(ctx.driver, rng, PROBE_OPS_PER_CLIENT, make_op)
    return ctx.driver.run_phase(phase, limit_us=DRAIN_LIMIT_US)


# ---------------------------------------------------------------- the catalogue
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "agree-null-f2", "closed", 2, 24, 2,
            _null_build(2, 24, DEFAULT_OPTIONS, 5), _null_timed(50),
            probe_op=lambda _ctx: _null_op,
            norep=_null_norep(24, 5, 50),
        ),
        Workload(
            "kv-mixed-open", "open", 1, KV_POOL, 4,
            _kv_build, _kv_timed,
            probe_op=lambda ctx: _kv_op(ctx.mix),
            ladder=_kv_ladder,
        ),
        Workload(
            "kv-crash-f1", "open", 1, KV_POOL, 3,
            _kv_build, _fault_timed(lagging_backup=False),
        ),
        Workload(
            "kv-faults-f1", "open", 1, KV_POOL, 2,
            _kv_build, _fault_timed(lagging_backup=True),
        ),
        Workload(
            "tree-null-f4", "closed", 4, 12, 2,
            _null_build(4, 12, DEFAULT_OPTIONS.with_tree_dissemination(), 3), _null_timed(84),
            probe_op=lambda _ctx: _null_op,
        ),
    )
}


# ------------------------------------------------------------------- metrics
def latencies(results: List[PhaseResult]) -> List[float]:
    """Modeled latency of every completed request, due time to accepted
    reply, pooled over ``results``, ascending."""
    return sorted(
        item.completed.completed_at - item.due
        for result in results for item in result.issued if item.completed
    )


def p99_of(results: List[PhaseResult]) -> float:
    return percentile(latencies(results), 0.99)


def longest_gap(result: PhaseResult, after: float) -> float:
    """Longest modeled gap (µs) between consecutive completions, counting
    the pair that straddles ``after`` and every later pair."""
    times = sorted(item.completed.completed_at for item in result.issued if item.completed)
    times = [result.start] + times
    gap = 0.0
    for earlier, later in zip(times, times[1:]):
        if later > after:
            gap = max(gap, later - earlier)
    return gap


def rep_modeled(ctx: Context, result: PhaseResult, outage: PhaseResult) -> Dict[str, float]:
    """The modeled figures of one repetition; a repetition of the same
    input stream must reproduce them exactly."""
    samples = latencies([result])
    return {
        "latency_p50_us": percentile(samples, 0.50),
        "latency_p99_us": percentile(samples, 0.99),
        "ops": len(samples),
        "elapsed_us": result.end - result.start,
        "outage_ms": longest_gap(outage, ctx.marks["crash"]) / 1000.0,
        **{f"mark.{name}": value for name, value in ctx.marks.items()},
    }


def pooled_modeled(results: List[PhaseResult], per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    """Modeled end-to-end metrics of a run: latency percentiles over the
    pooled samples of every input stream, throughput over their summed
    elapsed time, and the median outage."""
    samples = latencies(results)
    return {
        "latency_p50_us": percentile(samples, 0.50),
        "latency_p99_us": percentile(samples, 0.99),
        "throughput_ops_s": sum(m["ops"] for m in per_rep) / (sum(m["elapsed_us"] for m in per_rep) / 1e6),
        "outage_ms": statistics.median(m["outage_ms"] for m in per_rep),
    }


def program_counters(cluster: BFTCluster) -> Dict[str, float]:
    """The program's own work counters; deltas over a phase are per-run
    deterministic and feed the per-op count comparison."""
    stats = cluster.network.stats
    scheduler = cluster.scheduler
    counters = {
        "events": scheduler.dispatched,
        "pushes": scheduler.push_count,
        "msgs": stats.messages_sent,
        "bytes": stats.bytes_sent,
        "auth_bytes": stats.auth_bytes_sent,
        "coalesced": stats.messages_coalesced,
        "dropped": stats.messages_dropped,
    }
    for rid, replica in cluster.replicas.items():
        metrics = replica.metrics
        counters[f"{rid}.batches"] = metrics.batches_committed
        counters[f"{rid}.executed"] = metrics.requests_executed
        counters[f"{rid}.rejected"] = metrics.messages_rejected
        counters[f"{rid}.view_changes"] = metrics.view_changes_completed
        counters[f"{rid}.cpu_busy"] = cluster.replica_nodes[rid].cpu_busy_total
    for name, count in stats.per_type.items():
        counters[f"type.{name}"] = count
    return counters


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}
