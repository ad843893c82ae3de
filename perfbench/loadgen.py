"""Load generators: a closed loop, a seeded open loop, and the rate ladder.

Both loops drive a fixed pool of clients created through
``BFTCluster.new_client``.  Every request is issued from inside the
simulation (a scheduler event), so its modeled send time is exactly the
time it was due:

* closed loop -- each client sends its next operation a seeded think time
  after the previous one completed (the first one a seeded offset after the
  phase starts).  The think times are short next to a request's latency;
  they keep clients from locking into one batching pattern, so a seed
  changes the inputs the cluster sees;
* open loop -- arrivals follow a seeded Poisson process scheduled with
  ``Scheduler.schedule_at``.  An arrival takes the longest-idle client of the
  pool; when every client is busy it waits in a FIFO backlog and is sent by
  the next client to finish.  Latency is timed from when the request was
  due, so a stall also charges the requests that queued behind it.

Each phase records, per request, the due time, the modeled time the request
left the generator, the ``CompletedRequest`` and the operation's identity, so
the correctness checks and the metrics read one record.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.client import CompletedRequest
from repro.sim.events import EventKind

#: An operation as the generator hands it to a client: (bytes, read_only).
Operation = Tuple[bytes, bool]


@dataclass
class Issued:
    """One request of a phase, from due time to accepted reply."""

    index: int
    operation: bytes
    read_only: bool
    due: float
    client: str = ""
    timestamp: int = 0
    completed: Optional[CompletedRequest] = None
    completions: int = 0


@dataclass
class PhaseResult:
    """What a finished phase hands to the metrics and the checks."""

    start: float
    end: float
    issued: List[Issued]
    backlog_max: int = 0
    #: Modeled µs between when a request was due and when it was sent.
    lateness: List[float] = field(default_factory=list)
    #: (client, timestamp) pairs completed more than once.
    duplicates: int = 0

    @property
    def done(self) -> int:
        return sum(1 for item in self.issued if item.completed is not None)


class LoadDriver:
    """A fixed pool of clients whose completions feed the active phase."""

    def __init__(self, cluster, pool_size: int) -> None:
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.phase: Optional["_Phase"] = None
        #: Called between scheduler events while set (the host-speed meter
        #: of ``calibrate.py``); it never touches the simulation.
        self.between_events: Optional[Callable[[], None]] = None
        self.clients = [
            cluster.new_client(on_complete=self._completion_handler(index))
            for index in range(pool_size)
        ]

    def _completion_handler(self, index: int) -> Callable[[CompletedRequest], None]:
        def on_complete(completed: CompletedRequest) -> None:
            self.phase.on_complete(index, completed)
        return on_complete

    def run_phase(self, phase: "_Phase", limit_us: float = 3_600_000_000.0) -> PhaseResult:
        """Run ``phase`` until every request it issues has completed."""
        self.phase = phase
        phase.begin()
        self.cluster.run(stop_when=self.stop_condition(phase), duration=limit_us)
        self.phase = None
        return phase.result()

    def stop_condition(self, phase: "_Phase") -> Callable[[], bool]:
        """The scheduler's ``stop_when`` for ``phase``."""
        between_events = self.between_events
        if between_events is None:
            return phase.finished

        def stop() -> bool:
            between_events()
            return phase.finished()
        return stop


class _Phase:
    def __init__(self, driver: LoadDriver) -> None:
        self.driver = driver
        self.scheduler = driver.scheduler
        self.issued: List[Issued] = []
        self.by_request: Dict[Tuple[str, int], Issued] = {}
        self.outstanding = 0
        self.total = 0
        self.start = 0.0
        self.duplicates = 0
        self.lateness: List[float] = []

    def finished(self) -> bool:
        return self.outstanding == 0 and len(self.issued) >= self.total

    def _send(self, client_index: int, item: Issued) -> None:
        """Send ``item`` on a free client; the caller runs inside a handler
        of that client's node or through ``external_call``."""
        sync = self.driver.clients[client_index]
        self.lateness.append(self.scheduler.clock.now - item.due)
        item.client = sync.id
        item.timestamp = sync.protocol.invoke(item.operation, read_only=item.read_only)
        self.by_request[(item.client, item.timestamp)] = item

    def on_complete(self, client_index: int, completed: CompletedRequest) -> None:
        item = self.by_request.get((self.driver.clients[client_index].id, completed.timestamp))
        if item is None:
            return
        item.completions += 1
        if item.completions > 1:
            self.duplicates += 1
            return
        item.completed = completed
        self.outstanding -= 1
        self._next(client_index)

    def _next(self, client_index: int) -> None:
        raise NotImplementedError

    def result(self) -> PhaseResult:
        end = max(
            (item.completed.completed_at for item in self.issued if item.completed),
            default=self.start,
        )
        return PhaseResult(
            start=self.start,
            end=end,
            issued=self.issued,
            backlog_max=getattr(self, "backlog_max", 0),
            lateness=self.lateness,
            duplicates=self.duplicates,
        )


class ClosedLoop(_Phase):
    """Each client issues ``ops_per_client`` operations, one at a time."""

    def __init__(
        self,
        driver: LoadDriver,
        ops_per_client: int,
        make_op: Callable[[int, int], Operation],
        start_offsets: Sequence[float],
        think_times: Sequence[Sequence[float]],
    ) -> None:
        super().__init__(driver)
        self.ops_per_client = ops_per_client
        self.make_op = make_op
        self.start_offsets = start_offsets
        #: think_times[client][op] in µs, drawn up front so that completion
        #: order cannot change which client gets which value.
        self.think_times = think_times
        self.total = ops_per_client * len(driver.clients)
        self._sent_by_client = [0] * len(driver.clients)
        self._issuers = [self._issuer(index) for index in range(len(driver.clients))]

    def begin(self) -> None:
        self.start = self.scheduler.clock.now
        for index, offset in enumerate(self.start_offsets):
            self._issue_at(index, self.start + offset)

    def _issuer(self, client_index: int) -> Callable[[], None]:
        def issue() -> None:
            self._issue(client_index, self.scheduler.clock.now)
        return issue

    def _issue_at(self, client_index: int, when: float) -> None:
        self.scheduler.schedule_at(
            when, EventKind.INTERNAL, self.driver.clients[client_index].id,
            payload=self._issuers[client_index],
        )

    def _issue(self, client_index: int, due: float) -> None:
        op_index = self._sent_by_client[client_index]
        self._sent_by_client[client_index] += 1
        operation, read_only = self.make_op(client_index, op_index)
        item = Issued(len(self.issued), operation, read_only, due)
        self.issued.append(item)
        self.outstanding += 1
        self._send(client_index, item)

    def _next(self, client_index: int) -> None:
        sent = self._sent_by_client[client_index]
        if sent < self.ops_per_client:
            think = self.think_times[client_index][sent]
            self._issue_at(client_index, self.scheduler.clock.now + think)


class OpenLoop(_Phase):
    """Seeded Poisson arrivals on a fixed client pool with a FIFO backlog."""

    def __init__(
        self,
        driver: LoadDriver,
        arrivals: Sequence[Tuple[float, bytes, bool]],
    ) -> None:
        super().__init__(driver)
        #: (offset from phase start in µs, operation, read_only), sorted.
        self.arrivals = arrivals
        self.total = len(arrivals)
        self.free: Deque[int] = deque(range(len(driver.clients)))
        self.backlog: Deque[Issued] = deque()
        self.backlog_max = 0
        self._next_arrival = 0

    def begin(self) -> None:
        self.start = self.scheduler.clock.now
        self._schedule_arrival()

    def _schedule_arrival(self) -> None:
        if self._next_arrival >= len(self.arrivals):
            return
        offset = self.arrivals[self._next_arrival][0]
        self.scheduler.schedule_at(
            self.start + offset, EventKind.INTERNAL, self.driver.clients[0].id,
            callback=self._arrive,
        )

    def _arrive(self) -> None:
        offset, operation, read_only = self.arrivals[self._next_arrival]
        item = Issued(self._next_arrival, operation, read_only, self.start + offset)
        self._next_arrival += 1
        self.issued.append(item)
        self.outstanding += 1
        if self.free:
            index = self.free.popleft()
            node = self.driver.clients[index].node
            node.external_call(lambda: self._send(index, item))
        else:
            self.backlog.append(item)
            self.backlog_max = max(self.backlog_max, len(self.backlog))
        self._schedule_arrival()

    def _next(self, client_index: int) -> None:
        if self.backlog:
            self._send(client_index, self.backlog.popleft())
        else:
            self.free.append(client_index)


def poisson_offsets(rng: random.Random, rate_per_s: float, count: int) -> List[float]:
    """``count`` Poisson arrival offsets in µs at ``rate_per_s``."""
    mean_gap = 1_000_000.0 / rate_per_s
    offsets = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(1.0) * mean_gap
        offsets.append(now)
    return offsets


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, int(-(-fraction * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


#: Rates (ops/s) of the ladder behind ``max_rate_ops_s``.
RATE_LADDER = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 10000, 12000)
#: The latency limit on p99 for a rung to pass, in modeled µs.
P99_LIMIT_US = 5000.0


def backlog_grows(result: PhaseResult) -> bool:
    """A rung's backlog is growing when the second half of its requests
    waited clearly longer to be sent than the first half (the queue did not
    drain between arrivals)."""
    lateness = result.lateness
    half = len(lateness) // 2
    if half == 0:
        return False
    first = sum(lateness[:half]) / half
    second = sum(lateness[half:]) / (len(lateness) - half)
    return second > max(2.0 * first, 1000.0)


def climb_ladder(
    run_rung: Callable[[int], Tuple[float, bool]],
    start_rate: int,
    known: Optional[Tuple[float, bool]] = None,
) -> Tuple[float, List[Tuple[int, float, bool]]]:
    """Find the highest ladder rate whose p99 meets the limit without a
    growing backlog, starting at ``start_rate`` (whose ``(p99, grows)`` may
    be ``known``) and moving one rung at a time.

    Returns the rate interpolated linearly between the last passing and the
    first failing rung on p99 (so a change that moves the knee moves the
    figure even within one rung), and the rungs run.
    """
    ladder = list(RATE_LADDER)
    position = ladder.index(start_rate)
    rungs: List[Tuple[int, float, bool]] = []

    def probe(pos: int) -> Tuple[float, bool]:
        if pos == ladder.index(start_rate) and known is not None:
            p99, grows = known
        else:
            p99, grows = run_rung(ladder[pos])
        rungs.append((ladder[pos], p99, grows))
        return p99, grows

    def passes(p99: float, grows: bool) -> bool:
        return p99 <= P99_LIMIT_US and not grows

    p99, grows = probe(position)
    if passes(p99, grows):
        while position + 1 < len(ladder):
            next_p99, next_grows = probe(position + 1)
            if not passes(next_p99, next_grows):
                return _interpolate(ladder[position], p99, ladder[position + 1], next_p99), rungs
            position += 1
            p99 = next_p99
        return float(ladder[position]), rungs
    while position > 0:
        lower_p99, lower_grows = probe(position - 1)
        if passes(lower_p99, lower_grows):
            return _interpolate(ladder[position - 1], lower_p99, ladder[position], p99), rungs
        position -= 1
        p99 = lower_p99
    return 0.0, rungs


def _interpolate(pass_rate: int, pass_p99: float, fail_rate: int, fail_p99: float) -> float:
    if fail_p99 <= max(pass_p99, P99_LIMIT_US):
        # The upper rung failed on its backlog, not on p99.
        return float(pass_rate)
    share = (P99_LIMIT_US - pass_p99) / (fail_p99 - pass_p99)
    return pass_rate + (fail_rate - pass_rate) * min(1.0, max(0.0, share))
