"""The traced benchmark run records every span its per-layer metrics read.

``perfbench/layers.py`` wraps edgetelem callables where their callers look
them up, and ``layer_metrics`` reads the spans by name.  A caller that stops
going through a wrapped name records no span, and ``median_us([])`` is 0.0,
so the layer would read as a silent 0 µs.  This runs the wrappers over an
in-process agent, cloud and lake and checks each name that ``layer_metrics``
asks for.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from edgetelem import cloud, telemetry
from edgetelem.agent import AgentConfig, DirectPublisher, TelemetryAgent
from edgetelem.cloud import CloudService, Lake, Transport, rules_from_dict
from edgetelem.simulator import Platform
from edgetelem.telemetry import DeviceIdentity

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

RULES = {
    "rules": [
        {"rule_id": "r1-fps-cap", "metric_path": "app.fps", "comparator": "GT", "threshold": 30.0,
         "action": {"action": "StepFrequencyDown"}},
    ],
    "bandwidth": {"min_window": 2},
}

#: Emitted by the workloads themselves around the ingest lock, not by a wrapper.
WORKLOAD_EVENTS = {"cloud.lock_acquired"}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    return layers, spans


def recording_index(spans, asked: set):
    """A ``SpanIndex`` that notes every span name it is asked about."""

    class Recording(spans.SpanIndex):
        def named(self, name):
            asked.add(name)
            return super().named(name)

        def child_sum_ns(self, parent_name, child_names):
            asked.update(child_names)
            return super().child_sum_ns(parent_name, child_names)

        def within(self, span, ancestor_name):
            asked.add(ancestor_name)
            return super().within(span, ancestor_name)

    return Recording


def test_every_span_layer_metrics_reads_is_recorded(tmp_path, bench):
    layers, spans = bench
    tracer = spans.Tracer()
    layers.install_edge(tracer)
    layers.install_cloud(tracer)
    layers.install_read(tracer)
    try:
        service = CloudService(Lake(tmp_path / "lake"), rules_from_dict(RULES), clock_ms=lambda: 86_400_000)
        agent = TelemetryAgent(
            cfg=AgentConfig(device=DeviceIdentity(device_id="dev0")),
            platform=Platform(),
            publisher=DirectPublisher(lambda _topic, payload: service.ingest(payload, Transport.PUBSUB)),
        )
        for _ in range(6):
            agent.tick()
        returned = len(service.lake.query("dev0", 0, 2 * 86_400_000))
        assert len(service.lake.scan("dev0")) == returned == 6
    finally:
        tracer.restore()
    assert cloud.decode_snapshot is telemetry.decode_snapshot  # restored

    asked: set = set()
    index = recording_index(spans, asked)(tracer.spans)
    starts = [s[3] for s in tracer.spans]
    metrics = layers.layer_metrics(index, index, (min(starts), max(s[4] for s in tracer.spans)), returned)
    recorded = {s[2] for s in tracer.spans}
    assert asked, "layer_metrics read no span names"
    assert asked - WORKLOAD_EVENTS <= recorded, sorted(asked - WORKLOAD_EVENTS - recorded)
    assert metrics["cloud.query_useful_ratio"][0] == 1.0
