"""Pure measurement logic shared by the benchmark and its SUT process.

Everything here is deterministic and free of I/O so it can be unit-tested:
percentiles and the tail rule, the join of due times to persisted times,
trigger attribution from ``CloudService.dispatch_log``, span self time and
run-to-run spread.
"""

from __future__ import annotations

import statistics

# Tail percentiles in hundredths of a percent, lowest first.
TAIL_LADDER = (9000, 9900, 9990, 9999)
MIN_BEYOND = 10


def percentile(values, p_bp: int) -> float:
    """Nearest-rank percentile; ``p_bp`` is in hundredths of a percent."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-p_bp * len(ordered) // 10000))
    return ordered[rank - 1]


def beyond(n: int, p_bp: int) -> int:
    """Samples strictly above the nearest-rank ``p_bp`` percentile of n."""
    return n - max(1, -(-p_bp * n // 10000))


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    best = None
    for p_bp in TAIL_LADDER:
        if beyond(n, p_bp) >= MIN_BEYOND:
            best = p_bp
    return best


def supports(n: int, p_bp: int) -> bool:
    return beyond(n, p_bp) >= MIN_BEYOND


def summarize_ns(samples_ns) -> dict:
    """Median, p90, p99 and the highest supported tail of ns samples, in ms."""
    n = len(samples_ns)
    if n == 0:
        return {"n": 0}
    out = {"n": n, "p50_ms": percentile(samples_ns, 5000) / 1e6}
    for p_bp in (9000, 9900):
        out[f"p{p_bp // 100}_ms"] = percentile(samples_ns, p_bp) / 1e6
        out[f"p{p_bp // 100}_supported"] = supports(n, p_bp)
    tail = tail_percentile(n)
    if tail is not None:
        out["tail"] = {"p": tail / 100, "ms": percentile(samples_ns, tail) / 1e6}
    return out


def join_due(due: dict, done: dict):
    """Latency of each key in ``due`` that appears in ``done``.

    ``due`` maps a request key to the ns it was due; ``done`` maps the same
    key to the ns its result was observed.  Keys of ``done`` outside ``due``
    (warm-up traffic) are ignored.  Returns (latencies in ns, missing keys).
    """
    latencies, missing = [], []
    for key, due_ns in due.items():
        at = done.get(key)
        if at is None:
            missing.append(key)
        else:
            latencies.append(at - due_ns)
    return latencies, missing


def persisted_map(records) -> tuple:
    """(device, seq) -> ingest-return ns from SUT rows, plus duplicate keys.

    Each row is ``(device_id, seq, record_id, enter_ns, return_ns)``.
    """
    done, duplicates = {}, []
    for device_id, seq, _record_id, _enter, returned in records:
        key = (device_id, seq)
        if key in done:
            duplicates.append(key)
        done[key] = returned
    return done, duplicates


def ingest_attributed(service, payload: bytes, transport, triggers: dict):
    """Ingest one payload and attribute the actions it dispatched.

    Every entry that ``service.dispatch_log`` gains during this one
    ``ingest`` call was fired by this record, so ``triggers`` maps each new
    action seq to the record's (device_id, seq).
    """
    before = len(service.dispatch_log)
    record = service.ingest(payload, transport)
    key = (record.snapshot.device.device_id, record.snapshot.seq)
    for _device_id, message in service.dispatch_log[before:]:
        triggers[message.seq] = key
    return record


def feedback_latencies(due: dict, triggers: dict, received: dict):
    """Due-to-arrival latency of every received action.

    ``triggers`` maps action seq -> triggering (device_id, seq); ``received``
    maps action seq -> ns it reached the agent.  Actions whose trigger was
    not due in the window are skipped.  Returns (latencies in ns, number of
    received actions with no trigger).
    """
    latencies, orphans = [], 0
    for action_seq, at in received.items():
        key = triggers.get(action_seq)
        if key is None:
            orphans += 1
            continue
        due_ns = due.get(key)
        if due_ns is not None:
            latencies.append(at - due_ns)
    return latencies, orphans


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(start: int, end: int, children) -> int:
    """Span duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


def busy_ratio(intervals, lo: int, hi: int) -> float:
    """Share of [lo, hi] covered by ``intervals``."""
    return covered(intervals, lo, hi) / (hi - lo) if hi > lo else 0.0


def iqr_share(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
