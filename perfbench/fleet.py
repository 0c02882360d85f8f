"""Seeded inputs and lake read-back shared by the three workloads.

Inputs come only from the workload seed: each device gets its own platform
noise seed and its own regime-switching radio trace, so the bandwidth
predictor sees links collapse and recover and placement actions flow.
"""

from __future__ import annotations

import hashlib
import random
import time
from pathlib import Path

from edgetelem.agent import AgentConfig, DirectPublisher, PublishDown, TelemetryAgent
from edgetelem.bandwidth import LinearCoeffs, NetTrace, NetTraceConfig, RegimeSpec
from edgetelem.bus import BusError
from edgetelem.simulator import Platform, PlatformConfig
from edgetelem.telemetry import DeviceIdentity

DAY_MS = 86_400_000

# The cloud's rules for pubsub_fleet and replay_lake.  The fps cap/floor pair
# straddles the 29.6 fps of yolov3 one level below top clock, so a closed
# loop keeps stepping down and up.  The model rule re-deploys the running
# model: the agent downloads and verifies it without leaving the fps loop.
RULES = {
    "rules": [
        {"rule_id": "r1-fps-cap", "metric_path": "app.fps", "comparator": "GT",
         "threshold": 30.0, "action": {"action": "StepFrequencyDown"},
         "cooldown_ticks": 3, "consecutive_required": 2},
        {"rule_id": "r1-fps-floor", "metric_path": "app.fps", "comparator": "LT",
         "threshold": 30.0, "action": {"action": "StepFrequencyUp"},
         "cooldown_ticks": 3, "consecutive_required": 2},
        {"rule_id": "r2-model-refresh", "metric_path": "model.model_efficiency",
         "comparator": "LT", "threshold": 0.45,
         "action": {"action": "SwapModel", "model_id": "yolov3"},
         "cooldown_ticks": 40, "consecutive_required": 1},
    ],
    "bandwidth": {"required_mbps": 6.0, "reentry_margin": 1.25, "consecutive_required": 2,
                  "window": 30, "ridge_lambda": 0.001, "ewma_alpha": 0.3, "min_window": 5},
}

_GOOD = dict(rsrp_mean_dbm=-90.0, true_coeffs=LinearCoeffs(b0=22.0, b_rsrp=1.0, b_rsrq=0.5, b_rssi=0.3, b_hist=0.1))
_BAD = dict(rsrp_mean_dbm=-112.0, true_coeffs=LinearCoeffs(b0=2.0, b_rsrp=1.0, b_rsrq=0.5, b_rssi=0.3, b_hist=0.1))


def switching_trace(rng: random.Random) -> NetTraceConfig:
    """Good and bad radio regimes alternating every 15-40 ticks."""
    regimes, good = [], rng.random() < 0.5
    for _ in range(16):
        regimes.append(
            RegimeSpec(
                duration_ticks=rng.randint(15, 40),
                rsrp_std=3.0, rsrq_mean_db=-10.0, rsrq_std=1.5, rssi_offset_db=17.0,
                noise_std_mbps=0.3, **(_GOOD if good else _BAD),
            )
        )
        good = not good
    return NetTraceConfig(seed=rng.getrandbits(32), regimes=tuple(regimes))


def device_ids(n: int) -> list:
    return [f"dev{i:03d}" for i in range(n)]


def make_agents(n: int, seed: int, publisher, fetch_fn=None) -> list:
    """n agents, each with its own seeded platform and radio trace."""
    rng = random.Random(seed)
    agents = []
    for device_id in device_ids(n):
        platform = Platform(PlatformConfig(noise_seed=rng.getrandbits(32)))
        agents.append(
            TelemetryAgent(
                AgentConfig(device=DeviceIdentity(device_id)),
                platform,
                publisher,
                fetch_fn=fetch_fn,
                net_source=NetTrace(switching_trace(rng)),
            )
        )
    return agents


def generate_payloads(n_devices: int, rounds: int, seed: int) -> list:
    """Encoded snapshots from ``rounds`` round-robin ticks of n devices."""
    out = []
    agents = make_agents(n_devices, seed, DirectPublisher(lambda _topic, payload: out.append(payload)))
    for _ in range(rounds):
        for agent in agents:
            agent.tick()
    return out


class SessionPublisher:
    """Publish path for many agents over one shared bus session."""

    def __init__(self, session):
        self.session = session

    def publish(self, topic: str, payload: bytes) -> None:
        try:
            self.session.publish(topic, payload)
        except (BusError, OSError) as e:
            raise PublishDown(str(e)) from e

    def close(self) -> None:
        pass


def lake_digest(root) -> str:
    """sha256 over every lake file's relative path and bytes."""
    h = hashlib.sha256()
    rootp = Path(root)
    for path in sorted(p for p in rootp.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(rootp)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def lake_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


def read_back(lake, devices, n_queries: int, seed: int, check_order: bool, seconds: float = 0.0) -> dict:
    """Scan every device, then run seeded one-day queries; repeat the pass
    until ``seconds`` have gone by, so the timed reads span the machine's
    ups and downs instead of one moment of them.

    Checks: record ids over the whole lake are dense from 0; with
    ``check_order``, each device's seqs rise in record-id order; every query
    result equals the same filter over the device's scan.
    """
    scan_ns, query_ns, wrong, returned, passes = 0, [], 0, 0, 0
    start = time.monotonic()
    while passes == 0 or time.monotonic() - start < seconds:
        passes += 1
        scans = {}
        for device_id in devices:
            t0 = time.perf_counter_ns()
            scans[device_id] = lake.scan(device_id)
            scan_ns += time.perf_counter_ns() - t0
        rng = random.Random(seed)
        for _ in range(n_queries):
            device_id = rng.choice(devices)
            days = sorted({r.ingest_time_ms // DAY_MS for r in scans[device_id]})
            lo = rng.choice(days) * DAY_MS
            t0 = time.perf_counter_ns()
            got = lake.query(device_id, lo, lo + DAY_MS)
            query_ns.append(time.perf_counter_ns() - t0)
            expected = [r for r in scans[device_id] if lo <= r.ingest_time_ms < lo + DAY_MS]
            wrong += got != expected
            returned += len(got)
    ids = sorted(r.record_id for recs in scans.values() for r in recs)
    order_violations = 0
    if check_order:
        for recs in scans.values():
            seqs = [r.snapshot.seq for r in sorted(recs, key=lambda r: r.record_id)]
            order_violations += sum(1 for a, b in zip(seqs, seqs[1:]) if b <= a)
    return {
        "records": len(ids),
        "scanned": len(ids) * passes,
        "ids_dense": ids == list(range(len(ids))),
        "order_violations": order_violations,
        "scan_ns": scan_ns,
        "query_ns": query_ns,
        "query_wrong": wrong,
        "query_returned": returned,
    }
