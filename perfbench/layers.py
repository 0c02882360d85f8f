"""Which edgetelem callables the traced run wraps, and the per-layer metrics
derived from the spans they record.

Span names are ``<module>.<what>`` after the edgetelem module that owns
the callable.  Wrappers go on module attributes where callers look them up
(``edgetelem.cloud.decode_snapshot``, ``edgetelem.agent.encode_snapshot``)
and on class methods.
"""

from __future__ import annotations

from edgetelem import agent, bandwidth, bus, cloud, simulator

from measure import busy_ratio, percentile
from spans import SpanIndex, ack_request, action_request, median_us, record_request, snapshot_request


def install_cloud(tracer) -> None:
    """Ingest-side layers: cloud, telemetry decode, bandwidth predictor."""
    tracer.wrap(cloud.CloudService, "ingest", "cloud.ingest", record_request)
    tracer.wrap(cloud.CloudService, "http_backend", "cloud.http_backend", ack_request)
    tracer.wrap(cloud, "decode_snapshot", "telemetry.decode")
    tracer.wrap(cloud.Lake, "append", "cloud.lake_append")
    tracer.wrap(cloud, "evaluate_rules", "cloud.rules")
    tracer.wrap(bandwidth.BandwidthPredictor, "predict", "bandwidth.predict")
    tracer.wrap(bandwidth.BandwidthPredictor, "update", "bandwidth.update")


def install_edge(tracer) -> None:
    """Device-side layers: agent, simulator, telemetry encode, bus client."""
    tracer.wrap(agent.TelemetryAgent, "tick", "agent.tick", snapshot_request)
    tracer.wrap(agent.TelemetryAgent, "enqueue_action", "agent.enqueue", action_request)
    tracer.wrap(agent.TelemetryAgent, "apply_action", "agent.apply", action_request)
    tracer.wrap(agent, "fetch_model", "agent.model_fetch")
    tracer.wrap(agent, "encode_snapshot", "telemetry.encode")
    tracer.wrap(simulator.Platform, "advance", "simulator.advance")
    tracer.wrap(simulator.Platform, "sample", "simulator.sample")
    tracer.wrap(bus.Session, "publish", "bus.publish")
    tracer.wrap(bus, "http_post_snapshot", "bus.http_post", ack_request)


def install_read(tracer) -> None:
    """Lake read path."""
    tracer.wrap(cloud.Lake, "scan", "cloud.lake_scan")
    tracer.wrap(cloud.Lake, "query", "cloud.lake_query")
    tracer.wrap(cloud, "decode_record", "cloud.lake_decode")


def _by_request(index: SpanIndex, name: str) -> dict:
    """Start ns of each span with this name, keyed by its request id."""
    return {index.request(s): s[3] for s in index.named(name)}


def _median(samples_ns, scale: float):
    return percentile(samples_ns, 5000) / scale if samples_ns else None


def layer_metrics(edge: SpanIndex, cloud_side: SpanIndex, window: tuple, query_returned: int) -> dict:
    """Per-layer metrics present on every workload, as name -> (value, unit).

    ``edge`` holds the generator's and the read-back's spans, ``cloud_side``
    the SUT's (the same index for the single-process workload).  ``window``
    is the timed window (start ns, end ns) for the busy ratio, and
    ``query_returned`` the records the read-back's queries returned.
    """
    tick_ns = edge.durations_ns("agent.tick")
    decoded = sum(1 for s in edge.named("cloud.lake_decode") if edge.within(s, "cloud.lake_query"))
    lock_waits = [
        sum(c[3] - s[3] for c in cloud_side.children.get(s[0], ()) if c[2] == "cloud.lock_acquired")
        for s in cloud_side.named("cloud.ingest")
    ]
    ingest = cloud_side.named("cloud.ingest")
    return {
        "telemetry.decode_us": (median_us(cloud_side.durations_ns("telemetry.decode")), "us"),
        "telemetry.encode_us": (median_us(edge.durations_ns("telemetry.encode")), "us"),
        "simulator.step_us": (
            median_us(edge.child_sum_ns("agent.tick", ("simulator.advance", "simulator.sample"))), "us"),
        "agent.tick_p50_us": (median_us(tick_ns), "us"),
        "agent.tick_p99_us": (percentile(tick_ns, 9900) / 1e3, "us"),
        "cloud.ingest_us": (median_us(cloud_side.durations_ns("cloud.ingest")), "us"),
        "cloud.ingest_self_us": (median_us(cloud_side.self_times_ns("cloud.ingest")), "us"),
        "cloud.ingest_busy_ratio": (busy_ratio([(s[3], s[4]) for s in ingest], *window), "ratio"),
        "cloud.lock_wait_us": (median_us(lock_waits), "us"),
        "cloud.lake_append_us": (median_us(cloud_side.durations_ns("cloud.lake_append")), "us"),
        "cloud.rules_us": (median_us(cloud_side.durations_ns("cloud.rules")), "us"),
        "cloud.lake_decode_us": (median_us(edge.durations_ns("cloud.lake_decode")), "us"),
        "cloud.query_useful_ratio": (query_returned / decoded if decoded else 0.0, "ratio"),
    }


def workload_layer_metrics(edge: SpanIndex, cloud_side: SpanIndex) -> dict:
    """Per-layer metrics that exist only on some workloads; None where absent."""
    published = _by_request(edge, "bus.publish")
    delivered = _by_request(cloud_side, "bus.deliver")
    transit = [delivered[k] - t for k, t in published.items() if k in delivered]
    dispatched = _by_request(cloud_side, "cloud.dispatch")
    received = _by_request(edge, "bus.action_received")
    action_transit = [t - dispatched[k] for k, t in received.items() if k in dispatched]
    enqueued = _by_request(edge, "agent.enqueue")
    applied = _by_request(edge, "agent.apply")
    apply_wait = [t - enqueued[k] for k, t in applied.items() if k in enqueued]
    posts = {s[5]: s[4] - s[3] for s in edge.named("bus.http_post") if s[5]}
    backend = {s[5]: s[4] - s[3] for s in cloud_side.named("cloud.http_backend") if s[5]}
    overhead = [posts[k] - backend[k] for k in posts if k in backend]
    return {
        "bus.transit_ms": (_median(transit, 1e6), "ms"),
        "bus.action_transit_ms": (_median(action_transit, 1e6), "ms"),
        "bus.publish_block_us": (_median(edge.durations_ns("bus.publish"), 1e3), "us"),
        "bus.http_overhead_us": (_median(overhead, 1e3), "us"),
        "cloud.dispatch_us": (_median(cloud_side.durations_ns("cloud.dispatch"), 1e3), "us"),
        "bandwidth.update_us": (_median(cloud_side.durations_ns("bandwidth.update"), 1e3), "us"),
        "bandwidth.predict_us": (_median(cloud_side.durations_ns("bandwidth.predict"), 1e3), "us"),
        "agent.model_fetch_ms": (_median(edge.durations_ns("agent.model_fetch"), 1e6), "ms"),
        "agent.apply_wait_ms": (_median(apply_wait, 1e6), "ms"),
    }
