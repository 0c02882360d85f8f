"""Shared builders for test snapshots and randomized inputs."""

from __future__ import annotations

import importlib.util
import random
import socket
import string
from pathlib import Path

from edgetelem import bus
from edgetelem.telemetry import (
    AppMetrics,
    DeviceIdentity,
    EnergyMetrics,
    ModelMetrics,
    NetworkMetrics,
    TelemetrySnapshot,
)

DEVICE_ID_CHARS = string.ascii_letters + string.digits + "_-"


def bench_fleet():
    """``perfbench/fleet.py``, the benchmark's seeded fleet and rules, as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "fleet.py"
    spec = importlib.util.spec_from_file_location("_bench_fleet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_snapshot(
    *,
    device_id: str = "dev0",
    seq: int = 0,
    device_time_ms: int = 1000,
    latency_ms: float = 29.4,
    fps: float | None = None,
    power_w: float = 22.98,
    temp_c: float = 45.0,
    accel_utilization: float = 0.9,
    mem_throughput_gbps: float = 12.0,
    cpu_utilization: float = 0.15,
    mem_utilization: float = 0.35,
    model_efficiency: float = 0.5,
    model_id: str = "yolov3",
    rssi_dbm: float = -75.0,
    rsrq_db: float = -10.0,
    rsrp_dbm: float = -95.0,
    modem_temp_c: float = 38.0,
    dl_mbps: float = 12.0,
    ul_mbps: float = 1.2,
    network: NetworkMetrics | None = None,
) -> TelemetrySnapshot:
    """A valid snapshot with coherent derived fields, overridable per test."""
    if fps is None:
        fps = 1000.0 / latency_ms
    if network is None:
        network = NetworkMetrics(
            rssi_dbm=rssi_dbm,
            rsrq_db=rsrq_db,
            rsrp_dbm=rsrp_dbm,
            modem_temp_c=modem_temp_c,
            dl_mbps=dl_mbps,
            ul_mbps=ul_mbps,
        )
    return TelemetrySnapshot(
        device=DeviceIdentity(device_id=device_id),
        seq=seq,
        device_time_ms=device_time_ms,
        app=AppMetrics(ee_latency_ms=latency_ms, fps=fps),
        model=ModelMetrics(
            accel_utilization=accel_utilization,
            mem_throughput_gbps=mem_throughput_gbps,
            cpu_utilization=cpu_utilization,
            mem_utilization=mem_utilization,
            model_efficiency=model_efficiency,
            model_id=model_id,
        ),
        energy=EnergyMetrics(power_w=power_w, temp_c=temp_c, fps_per_watt=fps / power_w),
        network=network,
    )


def random_snapshot(rng: random.Random, seq: int = 0, device_id: str | None = None) -> TelemetrySnapshot:
    """Random valid snapshot; values fluctuate enough to cross rule thresholds."""
    if device_id is None:
        device_id = "".join(rng.choice(DEVICE_ID_CHARS) for _ in range(rng.randint(1, 24)))
    latency = rng.uniform(5.0, 500.0)
    if rng.random() < 0.05:
        fps = 0.0
    else:
        fps = (1000.0 / latency) * (1.0 + rng.uniform(-0.04, 0.04))
    power = rng.uniform(5.0, 30.0)
    return make_snapshot(
        device_id=device_id,
        seq=seq,
        device_time_ms=seq * 1000,
        latency_ms=latency,
        fps=fps,
        power_w=power,
        temp_c=rng.uniform(20.0, 90.0),
        accel_utilization=rng.random(),
        mem_throughput_gbps=rng.uniform(0.0, 120.0),
        cpu_utilization=rng.random(),
        mem_utilization=rng.random(),
        model_efficiency=rng.uniform(0.0, 2.0),
        model_id=rng.choice(("yolov3", "ssd_resnet50_fpn")),
        rssi_dbm=rng.uniform(-120.0, 0.0),
        rsrq_db=rng.uniform(-25.0, 0.0),
        rsrp_dbm=rng.uniform(-140.0, -40.0),
        modem_temp_c=rng.uniform(10.0, 80.0),
        dl_mbps=rng.uniform(0.0, 60.0),
        ul_mbps=rng.uniform(0.0, 20.0),
    )


def read_exact(sock: socket.socket, n: int):
    """``n`` bytes from a blocking socket; None if it closes first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket):
    """One frame from a blocking socket, decoded by ``bus.decode_frame``; None on a clean close."""
    header = read_exact(sock, 5)
    if header is None:
        return None
    _, end = bus._frame_end(header, 0)
    body = read_exact(sock, end - 5)
    if body is None:
        raise bus.FrameError("connection closed mid-frame")
    return bus.decode_frame(header + body)
