"""Correctness checks run on every repetition; any violation fails the run."""

from __future__ import annotations

from typing import List, Tuple

from perfbench.loadgen import PhaseResult
from perfbench.workloads import Context

#: Modeled µs the cluster may run after the last completion so that every
#: correct replica commits the batches it executed tentatively.
SETTLE_US = 200_000.0


def check_phase(ctx: Context, result: PhaseResult) -> Tuple[List[str], int]:
    """Exactly-once completion and result checks for one phase.  Returns
    one message per violation (the first 20) and the number of requests
    that did not complete or failed their result check."""
    errors: List[str] = []
    failed = 0
    if result.duplicates:
        errors.append(f"{result.duplicates} requests completed more than once")
    seen = set()
    for item in result.issued:
        if item.completed is None:
            failed += 1
            errors.append(f"request {item.index} ({item.client}, {item.timestamp}) never completed")
            continue
        request_id = (item.client, item.timestamp)
        if request_id in seen:
            errors.append(f"request id {request_id} issued twice")
        seen.add(request_id)
        problem = _check_result(ctx, item.operation, item.completed.result)
        if problem:
            failed += 1
            errors.append(problem)
    return errors[:20], failed


def _check_result(ctx: Context, operation: bytes, result: bytes) -> str:
    if ctx.mix is None:
        # Null 0/0 operations ask for an empty result.
        return "" if len(result) == 0 else f"null result of {len(result)} bytes, wanted 0"
    verb, key = operation.split(b" ", 2)[:2]
    if verb == b"GET":
        if result not in ctx.mix.written[key]:
            return f"GET {key!r} returned a value no SET or preload wrote"
        return ""
    return "" if result == b"OK" else f"SET {key!r} returned {result[:40]!r}"


def settle_and_check_replicas(ctx: Context) -> List[str]:
    """Let the cluster finish committing, then require equal
    ``last_executed`` and ``state_digest()`` on every correct replica."""
    cluster = ctx.cluster
    correct = [r for rid, r in cluster.replicas.items() if rid not in ctx.faulty]
    deadline = cluster.now + SETTLE_US
    while cluster.now < deadline:
        if len({r.last_executed for r in correct}) == 1:
            break
        cluster.run(duration=5_000.0)
    executed = {r.id: r.last_executed for r in correct}
    if len(set(executed.values())) != 1:
        return [f"correct replicas disagree on last_executed: {executed}"]
    digests = {r.id: r.service.state_digest() for r in correct}
    if len(set(digests.values())) != 1:
        return [f"correct replicas disagree on state_digest: {sorted(digests)}"]
    return []
