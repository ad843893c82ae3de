"""The traced run: spans at each layer's public entry points.

Wrappers are installed from this file around the calls listed in
``README.md`` (one table row per layer) and only for the traced
repetitions; ``gc.callbacks`` times the collector in the same repetitions.
Each span records its name, start, end, parent span and -- where the call
carries a ``Request`` or ``Reply`` -- the request id ``client:timestamp``.
Spans stay in memory; those of the first traced repetition are written to
``.perfbench/spans-<workload>-seed<seed>.tsv.gz`` when the run ends.

A layer's self time is the wall time of its spans minus the time covered by
their child spans.  The remainder of the timed phase not covered by any
span is reported as ``trace.unattributed_us_per_op``, and the tracing
overhead as traced over untraced ``cpu_us_per_op`` of the same process.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import messages as messages_module
from repro.core.auth import Authentication
from repro.core.client import Client
from repro.core.messages import NewView, PrePrepare, Reply, Request, ViewChange, ViewChangeAck
from repro.core.replica import Replica
from repro.crypto import digests as digests_module
from repro.crypto import mac as mac_module
from repro.net.network import Network
from repro.net.overlay import OverlayDisseminator
from repro.services.interface import PagedService
from repro.services.kvstore import KeyValueStore
from repro.services.null_service import NullService
from repro.sim.node import Node
from repro.sim.scheduler import Scheduler
from repro.statetransfer.transfer import StateTransferManager

from perfbench import loadgen
from perfbench.workloads import FaultSchedule

VIEW_CHANGE_TYPES = (ViewChange, ViewChangeAck, NewView)
#: Message types of one agreement round on the wire (flat or tree mode).
AGREEMENT_TYPES = ("PrePrepare", "Prepare", "Commit", "Checkpoint", "Relay", "RelayComplaint")
#: Replica message types whose self time is reported on its own.
REPLICA_TYPES = ("Request", "PrePrepare", "Prepare", "Commit", "Checkpoint")

OUT_DIR = ".perfbench"


def _request_id(message: Any) -> Optional[str]:
    kind = type(message)
    if kind is Request or kind is Reply:
        return f"{message.client}:{message.timestamp}"
    return None


def _keep_min(table: Dict[Tuple[str, int], float], key: Tuple[str, int], value: float) -> None:
    known = table.get(key)
    if known is None or value < known:
        table[key] = value


class Tracer:
    """Span stack, per-name self/total time, and the phase departure log."""

    def __init__(self, record_spans: bool) -> None:
        self.active = False
        self.stack: List[list] = []
        #: Spans as parallel columns: the collector tracks none of these
        #: entries, so recording does not make garbage collection slower.
        self.spans: Optional[Dict[str, Any]] = (
            {"name": [], "parent": array("q"), "start": array("q"),
             "end": array("q"), "request": []}
            if record_spans else None
        )
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.total_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.digest_bytes = 0
        self.tags_requested = 0
        self.snapshot_pages = 0
        self._in_mac_tag = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_started = 0
        self.install_times: List[float] = []
        #: Request id -> modeled departure of the request / its pre-prepare /
        #: its first reply, seen at the network.
        self.request_sent: Dict[Tuple[str, int], float] = {}
        self.preprepare_sent: Dict[Tuple[str, int], float] = {}
        self.reply_sent: Dict[Tuple[str, int], float] = {}
        self._digest_to_request: Dict[bytes, Tuple[str, int]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self.cluster = None
        self._baseline: Dict[str, float] = {}

    # ------------------------------------------------------------- spans
    def enter(self, name: str, request: Optional[str] = None) -> None:
        index = -1
        spans = self.spans
        if spans is not None:
            index = len(spans["name"])
            spans["name"].append(name)
            spans["parent"].append(self.stack[-1][3] if self.stack else -1)
            spans["start"].append(0)
            spans["end"].append(0)
            spans["request"].append(request)
        self.stack.append([name, time.perf_counter_ns(), 0, index])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, index = self.stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.total_ns[name] += duration
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            self.spans["start"][index] = start
            self.spans["end"][index] = end

    def _gc_callback(self, phase: str, _info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = 0

    # ------------------------------------------------------------ patching
    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn: Callable, request_arg: Optional[int] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            request = _request_id(args[request_arg]) if request_arg is not None else None
            tracer.enter(name, request)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()
        return wrapper

    def _span_method(self, cls: type, attr: str, name: str, request_arg: Optional[int] = None) -> None:
        self._patch(cls, attr, self._span(name, cls.__dict__[attr], request_arg))

    def _patch_function(self, module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` wherever a program module imported it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, wrapper)

    def install(self) -> None:
        tracer = self
        self._digest = digests_module.digest
        self._pack = messages_module.pack
        self._span_method(Scheduler, "run", "scheduler.run")
        self._span_method(Node, "handle_event", "env.handle_event")

        receive = Replica.receive

        def replica_receive(replica, message):
            if not tracer.active:
                return receive(replica, message)
            layer = "viewchange" if isinstance(message, VIEW_CHANGE_TYPES) else "replica"
            tracer.enter(f"{layer}.receive.{type(message).__name__}", _request_id(message))
            try:
                return receive(replica, message)
            finally:
                tracer.exit()
        self._patch(Replica, "receive", replica_receive)
        self._span_method(Replica, "on_timer", "replica.on_timer")
        self._span_method(Replica, "start_view_change", "viewchange.start_view_change")

        install_pages = Replica.install_fetched_pages

        def install_fetched_pages(replica, *args, **kwargs):
            if tracer.active:
                tracer.install_times.append(replica.env.now())
            return install_pages(replica, *args, **kwargs)
        self._patch(Replica, "install_fetched_pages",
                    self._span("statetransfer.install_fetched_pages", install_fetched_pages))

        self._span_method(Client, "receive", "client.receive", 1)
        self._span_method(Client, "on_timer", "client.on_timer")

        self._span_method(Authentication, "sign_multicast", "auth.sign_multicast", 1)
        self._span_method(Authentication, "sign_point_to_point", "auth.sign_point_to_point", 1)
        self._span_method(Authentication, "verify", "auth.verify", 1)
        mac_tag = Authentication._mac_tag

        def counted_mac_tag(auth, *args):
            if not tracer.active:
                return mac_tag(auth, *args)
            tracer.tags_requested += 1
            tracer._in_mac_tag += 1
            try:
                return mac_tag(auth, *args)
            finally:
                tracer._in_mac_tag -= 1
        self._patch(Authentication, "_mac_tag", counted_mac_tag)
        make_signer = Authentication.point_to_point_signer

        def point_to_point_signer(auth):
            return tracer._span("auth.sign_point_to_point", make_signer(auth), 0)
        self._patch(Authentication, "point_to_point_signer", point_to_point_signer)

        def traced_digest(original):
            span = self._span("crypto.digest", original)

            def digest(data):
                if tracer.active:
                    tracer.digest_bytes += len(data)
                return span(data)
            return digest
        self._patch_function(digests_module, "digest", traced_digest)

        def traced_compute_mac(original):
            span = self._span("crypto.compute_mac", original)

            def compute_mac(key, data):
                if tracer.active and not tracer._in_mac_tag:
                    tracer.tags_requested += 1
                return span(key, data)
            return compute_mac
        self._patch_function(mac_module, "compute_mac", traced_compute_mac)
        self._patch_function(mac_module, "verify_mac", lambda f: self._span("crypto.verify_mac", f))

        self._patch_function(messages_module, "pack", lambda f: self._span("messages.pack", f))
        self._span_method(messages_module.Message, "payload_bytes", "messages.payload_bytes")
        self._span_method(messages_module.Message, "wire_size", "messages.wire_size")

        send = Network.send
        send_many = Network.send_many

        def network_send(network, source, destination, message, size_bytes, not_before=None):
            if tracer.active:
                now = network.scheduler.clock.now
                tracer._departure(source, message, now if not_before is None else max(now, not_before))
            return send(network, source, destination, message, size_bytes, not_before)

        def network_send_many(network, source, deliveries):
            if tracer.active:
                deliveries = list(deliveries)
                now = network.scheduler.clock.now
                for _destination, message, _size, not_before in deliveries:
                    tracer._departure(source, message, now if not_before is None else max(now, not_before))
            return send_many(network, source, deliveries)
        self._patch(Network, "send", self._span("net.send", network_send, 3))
        self._patch(Network, "send_many", self._span("net.send_many", network_send_many))

        for attr in ("disseminate", "on_wire", "watchdog_tick", "_flush"):
            self._span_method(OverlayDisseminator, attr, f"overlay.{attr.lstrip('_')}")

        for cls in (KeyValueStore, NullService):
            self._span_method(cls, "execute", "service.execute")
            self._span_method(cls, "execute_batch", "service.execute_batch")
        snapshot = PagedService.snapshot

        def counted_snapshot(service):
            if tracer.active:
                tracer.snapshot_pages += len(service.dirty_pages())
            return snapshot(service)
        self._patch(PagedService, "snapshot", self._span("service.snapshot", counted_snapshot))
        self._span_method(PagedService, "release_snapshot", "service.release_snapshot")
        self._span_method(PagedService, "state_digest", "service.state_digest")

        for attr in ("start", "handle", "tick"):
            self._span_method(StateTransferManager, attr, f"statetransfer.{attr}")

        self._span_method(loadgen.ClosedLoop, "_issue", "bench.loadgen")
        self._span_method(loadgen.OpenLoop, "_arrive", "bench.loadgen")
        self._span_method(loadgen._Phase, "on_complete", "bench.loadgen")
        self._span_method(FaultSchedule, "_poll", "bench.faults")
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ phases
    def _departure(self, source: str, message: Any, depart: float) -> None:
        """Keep the earliest modeled departure per request id.  Sends are
        seen in handler order, and a busy node's sends depart later than a
        less busy node's sends seen after them, hence the minimum."""
        kind = type(message)
        if kind is Request:
            if message.read_only or source != message.client:
                return
            rid = (message.client, message.timestamp)
            if rid not in self.request_sent:
                self._digest_to_request[self._request_digest(message)] = rid
            _keep_min(self.request_sent, rid, depart)
        elif kind is PrePrepare:
            for request in message.requests:
                _keep_min(self.preprepare_sent, (request.client, request.timestamp), depart)
            for request_digest in message.separate_digests:
                rid = self._digest_to_request.get(request_digest)
                if rid is not None:
                    _keep_min(self.preprepare_sent, rid, depart)
        elif kind is Reply:
            _keep_min(self.reply_sent, (message.client, message.timestamp), depart)

    def _request_digest(self, request: Request) -> bytes:
        """The protocol's request digest, computed by the unwrapped functions
        so it neither counts as traced work nor fills message caches."""
        return self._digest(self._pack(request.client, request.timestamp, request.operation))

    # ------------------------------------------------------- repetition
    def begin(self, ctx) -> None:
        self.cluster = ctx.cluster
        self._baseline = self._program_counters()
        self.active = True

    def end(self) -> None:
        self.active = False
        self._final = self._program_counters()

    def _program_counters(self) -> Dict[str, float]:
        from perfbench.workloads import program_counters
        counters = program_counters(self.cluster)
        cluster = self.cluster
        counters["fallbacks"] = sum(d.stats.fallbacks for d in cluster.disseminators.values())
        for field in ("bytes_fetched", "pages_fetched"):
            counters[f"st.{field}"] = sum(
                getattr(r.state_transfer.metrics, field) for r in cluster.replicas.values()
            )
        return counters

    def layer_metrics(self, ctx, result, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of this traced repetition."""
        before, after = self._baseline, self._final
        delta = {key: after[key] - before.get(key, 0) for key in after}
        ops = max(1, result.done)
        replicas = list(ctx.cluster.replicas)
        batches = sum(delta[f"{r}.batches"] for r in replicas)
        executed = sum(delta[f"{r}.executed"] for r in replicas)
        rounds = max(delta[f"{r}.batches"] for r in replicas)
        elapsed_us = max(1.0, result.end - result.start)

        def self_us(prefix: str) -> float:
            return sum(v for k, v in self.self_ns.items() if k.startswith(prefix)) / 1000.0

        def calls(prefix: str) -> int:
            return sum(v for k, v in self.calls.items() if k.startswith(prefix))

        metrics: Dict[str, float] = {
            "scheduler.events_per_op": delta["events"] / ops,
            "scheduler.pushes_per_op": delta["pushes"] / ops,
            "scheduler.self_us_per_op": self_us("scheduler.") / ops,
            "env.self_us_per_op": self_us("env.") / ops,
            "env.handlings_per_op": calls("env.handle_event") / ops,
            "replica.self_us_per_op": self_us("replica.") / ops,
            "replica.msgs_in_per_op": (calls("replica.receive.") + calls("viewchange.receive.")) / ops,
            "replica.ops_per_batch": executed / batches if batches else 0.0,
            "replica.rejected_per_op": sum(delta[f"{r}.rejected"] for r in replicas) / ops,
            # The busiest replica is the primary (of the new view after a
            # view change).
            "replica.primary_busy_frac": max(delta[f"{r}.cpu_busy"] for r in replicas) / elapsed_us,
        }
        for kind in REPLICA_TYPES:
            metrics[f"replica.self_us_per_op.{kind}"] = self_us(f"replica.receive.{kind}") / ops
        metrics["replica.self_us_per_op.timer"] = self_us("replica.on_timer") / ops
        metrics.update({
            "viewchange.count": max(delta[f"{r}.view_changes"] for r in replicas),
            "viewchange.msgs": sum(delta.get(f"type.{t.__name__}", 0) for t in VIEW_CHANGE_TYPES),
            "viewchange.self_us": self_us("viewchange."),
            "client.self_us_per_op": self_us("client.") / ops,
            "client.retransmissions_per_op": sum(
                item.completed.retransmissions for item in result.issued if item.completed
            ) / ops,
            "auth.self_us_per_op": self_us("auth.") / ops,
            "auth.signs_per_op": (calls("auth.sign_multicast") + calls("auth.sign_point_to_point")) / ops,
            "auth.verifies_per_op": calls("auth.verify") / ops,
            "auth.tag_cache_hit_frac": (
                1.0 - calls("crypto.compute_mac") / self.tags_requested if self.tags_requested else 0.0
            ),
            "crypto.macs_per_op": calls("crypto.compute_mac") / ops,
            "crypto.digest_bytes_per_op": self.digest_bytes / ops,
            "crypto.self_us_per_op": self_us("crypto.") / ops,
            "messages.encodes_per_op": calls("messages.pack") / ops,
            "messages.self_us_per_op": self_us("messages.") / ops,
            "net.msgs_per_op": delta["msgs"] / ops,
            "net.bytes_per_op": delta["bytes"] / ops,
            "net.auth_bytes_per_op": delta["auth_bytes"] / ops,
            "net.coalesced_frac": delta["coalesced"] / delta["msgs"] if delta["msgs"] else 0.0,
            "net.self_us_per_op": self_us("net.") / ops,
            "overlay.self_us_per_op": self_us("overlay.") / ops,
            "overlay.agreement_msgs_per_batch": (
                sum(delta.get(f"type.{t}", 0) for t in AGREEMENT_TYPES) / rounds if rounds else 0.0
            ),
            "overlay.fallbacks": delta["fallbacks"],
            "service.self_us_per_op": self_us("service.") / ops,
            "service.snapshot_us_per_checkpoint": (
                self.total_ns["service.snapshot"] / 1000.0 / self.calls["service.snapshot"]
                if self.calls["service.snapshot"] else 0.0
            ),
            "service.pages_per_snapshot": (
                self.snapshot_pages / self.calls["service.snapshot"]
                if self.calls["service.snapshot"] else 0.0
            ),
            "statetransfer.catchup_ms": self._catchup_ms(ctx),
            "statetransfer.bytes": delta["st.bytes_fetched"],
            "statetransfer.pages": delta["st.pages_fetched"],
            "statetransfer.self_us": self_us("statetransfer."),
            "gc.us_per_op": self.gc_ns / 1000.0 / ops,
            "gc.collections_per_op": self.gc_collections / ops,
            "bench.self_us_per_op": self_us("bench.") / ops,
            "trace.unattributed_us_per_op": (
                wall_s * 1e6 - sum(self.self_ns.values()) / 1000.0
            ) / ops,
        })
        metrics.update(self._phase_medians(result))
        return metrics

    def _catchup_ms(self, ctx) -> float:
        heal = ctx.marks.get("heal")
        if heal is None:
            return 0.0
        after = [t for t in self.install_times if t >= heal]
        return (after[0] - heal) / 1000.0 if after else 0.0

    def _phase_medians(self, result) -> Dict[str, float]:
        order, agree, reply = [], [], []
        for item in result.issued:
            if item.read_only or item.completed is None:
                continue
            rid = (item.client, item.timestamp)
            sent = self.request_sent.get(rid)
            preprepare = self.preprepare_sent.get(rid)
            replied = self.reply_sent.get(rid)
            if sent is None or preprepare is None or replied is None:
                continue
            order.append(preprepare - sent)
            agree.append(replied - preprepare)
            reply.append(item.completed.completed_at - replied)
        if not order:
            return {"phase.order_us": 0.0, "phase.agree_us": 0.0, "phase.reply_us": 0.0}
        return {
            "phase.order_us": statistics.median(order),
            "phase.agree_us": statistics.median(agree),
            "phase.reply_us": statistics.median(reply),
        }

    def write_spans(self, path: str) -> int:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = self.spans
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\trequest\n")
            for index, row in enumerate(zip(spans["parent"], spans["name"], spans["start"],
                                            spans["end"], spans["request"])):
                parent, name, start, end, request = row
                out.write(f"{index}\t{parent}\t{name}\t{start}\t{end}\t{request or ''}\n")
        return len(spans["name"])


# -------------------------------------------------------------- the traced run
#: Counts that must repeat exactly across traced repetitions.
COUNT_METRICS = (
    "scheduler.events_per_op", "scheduler.pushes_per_op", "env.handlings_per_op",
    "replica.msgs_in_per_op", "replica.ops_per_batch", "replica.rejected_per_op",
    "replica.primary_busy_frac", "viewchange.count", "viewchange.msgs",
    "client.retransmissions_per_op", "auth.signs_per_op", "auth.verifies_per_op",
    "auth.tag_cache_hit_frac", "crypto.macs_per_op", "crypto.digest_bytes_per_op",
    "messages.encodes_per_op", "net.msgs_per_op", "net.bytes_per_op",
    "net.auth_bytes_per_op", "net.coalesced_frac", "overlay.agreement_msgs_per_batch",
    "overlay.fallbacks", "service.pages_per_snapshot", "statetransfer.catchup_ms",
    "statetransfer.bytes", "statetransfer.pages", "phase.order_us", "phase.agree_us",
    "phase.reply_us",
)


def traced_run(workload, seed: int, seconds: float) -> int:
    from perfbench.run import determinism_errors, repeat

    tracers: List[Tracer] = []

    def make_tracer(index: int) -> Optional[Tracer]:
        if index % 2 == 0:
            return None
        tracer = Tracer(record_spans=not tracers)
        tracers.append(tracer)
        return tracer

    reps = repeat(workload, seed, seconds, [0], 4, make_tracer)
    untraced = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    errors = [e for rep in reps for e in rep.errors]
    errors += determinism_errors(untraced) + determinism_errors(traced)
    layers = dict(traced[0].layers) if traced else {}
    for key in layers:
        if key not in COUNT_METRICS:
            layers[key] = statistics.median(r.layers[key] for r in traced)
    for rep in traced[1:]:
        for key in COUNT_METRICS:
            if rep.layers.get(key) != layers.get(key):
                errors.append(f"traced count {key} differs between repetitions")
    untraced_cpu = statistics.median(r.cpu_us_per_op for r in untraced)
    traced_cpu = statistics.median(r.cpu_us_per_op for r in traced) if traced else untraced_cpu
    first = reps[0].result
    layers.update({
        "trace.overhead_ratio": traced_cpu / untraced_cpu,
        "openloop.backlog_max": first.backlog_max,
        "openloop.lateness_max_us": max(first.lateness, default=0.0),
        "latency.samples": first.done,
    })
    layers.update(workload.norep(seed) if workload.norep is not None
                  else {"norep.latency_p50_us": 0.0, "norep.cpu_us_per_op": 0.0})
    span_file = ""
    if tracers and tracers[0].spans and tracers[0].spans["name"]:
        span_file = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz")
        count = tracers[0].write_spans(span_file)
        span_file = f"{span_file} ({count} spans)"
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"workload {workload.name}, seed {seed}, traced: {len(traced)} traced and "
          f"{len(untraced)} untraced repetitions; spans in {span_file or 'nothing'}")
    for name, value in layers.items():
        print(f"  {name} = {value:.6g}")
    for message in errors[:20]:
        print(f"  CHECK FAILED: {message}")
    from perfbench.spec import PER_LAYER_UNITS
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()
        },
    }))
    return 0 if not errors else 1
