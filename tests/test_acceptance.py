"""Acceptance suite: the system-level exit criteria, one test per criterion.

Each test prints one ``ACCEPTANCE n [...]: PASS/FAIL`` line (visible with
``pytest -s``) and enforces its runtime budget.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import random_snapshot
from oracle_rules import naive_fire_sequence
from edgetelem import bus
from edgetelem.bandwidth import BandwidthPredictor, LinearCoeffs, NetTraceConfig, PredictorConfig, RegimeSpec, gen_trace
from edgetelem.cloud import (
    ActionTemplate,
    CloudService,
    Comparator,
    Lake,
    Rule,
    RuleSet,
    Transport,
    evaluate_rules,
)
from edgetelem.agent import ActionKind
from edgetelem.scenario import load_scenario, run_scenario
from edgetelem.simulator import Platform, builtin_profiles
from edgetelem.telemetry import TelemetryError, decode_snapshot, encode_snapshot

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "edgetelem" / "scenarios"


@contextmanager
def criterion(num: int, title: str, budget_s: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s:.0f}s"
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num} [{title}]: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


def test_1_simulator_calibration():
    with criterion(1, "simulator calibration", 1.0):
        profiles = builtin_profiles()
        platform = Platform(initial_model=profiles["yolov3"])
        assert platform.latency_ms() == pytest.approx(29.4, rel=0.02)
        assert platform.fps() / platform.power_w() == pytest.approx(1.48, rel=0.02)
        platform.load_model(profiles["ssd_resnet50_fpn"])
        assert platform.latency_ms() == pytest.approx(200.0, rel=0.02)
        assert platform.fps() / platform.power_w() == pytest.approx(0.37, rel=0.02)


def test_2_fps_cap_feedback_loop(tmp_path):
    with criterion(2, "fps-cap feedback loop", 5.0):
        spec = load_scenario(SCENARIO_DIR / "scenario_fps_cap.json")
        assert spec.ticks == 60
        report = run_scenario(spec, tmp_path / "out")

        records = Lake(tmp_path / "out" / "lake").scan("dev0")
        fps_by_tick = [r.snapshot.app.fps for r in records]
        assert fps_by_tick[0] == pytest.approx(34.0, rel=0.02)  # starts at ~34 fps

        # second consecutive violation of the >30 fps cap
        violations = [i for i, fps in enumerate(fps_by_tick) if fps > 30.0]
        second_violation = violations[1]
        downs = [
            a for a in report["actions"]
            if a["action"] == "StepFrequencyDown" and a["status"] == "applied"
        ]
        assert downs, "the frequency cap never fired"
        assert downs[0]["tick"] <= second_violation + 10

        assert report["final_fps"] <= 30.0
        initial_power = records[0].snapshot.energy.power_w
        assert report["final_power_w"] < initial_power

        last_window_start = spec.ticks - 20
        late_freq_actions = [
            a for a in report["actions"]
            if a["action"] in ("StepFrequencyDown", "StepFrequencyUp")
            and a.get("tick", a["dispatch_tick"]) >= last_window_start
        ]
        assert late_freq_actions == [], "frequency actions oscillated near the end"


def test_3_model_swap_loop(tmp_path):
    with criterion(3, "model-swap loop with digest verification", 5.0):
        ok = run_scenario(load_scenario(SCENARIO_DIR / "scenario_model_swap.json"), tmp_path / "ok")
        swaps = [a for a in ok["actions"] if a["action"] == "SwapModel"]
        assert swaps and swaps[0]["status"] == "applied"
        assert ok["final_model_id"] == "ssd_resnet50_fpn"

        bad = run_scenario(
            load_scenario(SCENARIO_DIR / "scenario_model_swap_corrupt.json"), tmp_path / "bad"
        )
        bad_swaps = [a for a in bad["actions"] if a["action"] == "SwapModel"]
        assert bad_swaps and bad_swaps[0]["status"] == "rejected"
        assert bad_swaps[0]["reason"] == "integrity"
        assert bad["final_model_id"] == "yolov3"


def test_4_placement_loop(tmp_path):
    with criterion(4, "bandwidth-driven placement loop", 5.0):
        spec = load_scenario(SCENARIO_DIR / "scenario_offload.json")
        regime_ticks = [r["duration_ticks"] for r in spec.trace["regimes"]]
        low_start = regime_ticks[0]
        recovery_start = regime_ticks[0] + regime_ticks[1]

        report = run_scenario(spec, tmp_path / "out")
        placements = [a for a in report["actions"] if a["action"] == "SetPlacement"]
        to_device = [a for a in placements if a["placement"] == "Device"]
        to_edge = [a for a in placements if a["placement"] == "Edge"]

        assert len(to_device) == 1, f"expected exactly one move to Device, got {placements}"
        assert len(to_edge) == 1, f"expected exactly one move back to Edge, got {placements}"
        assert abs(to_device[0]["dispatch_tick"] - low_start) <= 5
        assert abs(to_edge[0]["dispatch_tick"] - recovery_start) <= 5
        assert to_device[0]["status"] == "applied" and to_edge[0]["status"] == "applied"
        assert report["placement"] == "Edge"


def _stats_match_oracle(stats, samples):
    n = len(samples)
    mean = math.fsum(samples) / n
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in samples) / (n - 1)) if n > 1 else 0.0
    assert math.isclose(stats.mean_ms, mean, rel_tol=1e-9, abs_tol=1e-9)
    assert stats.min_ms == min(samples)
    assert stats.max_ms == max(samples)
    assert math.isclose(stats.stddev_ms, std, rel_tol=1e-9, abs_tol=1e-9)
    assert stats.n == n


def test_5_latency_bench_recovers_injected_delay():
    # The absolute cellular-network latencies are not reproducible at desk
    # scale; the substituted property is that the probe recovers a known
    # injected server delay on top of the measured loopback baseline.
    with criterion(5, "latency bench recovers injected delay", 30.0):
        delay = bus.DelaySpec(kind="normal", mean_ms=50.0, std_ms=5.0)
        n = 200

        broker = bus.Broker().start()
        try:
            responder = bus.EchoResponder(broker.address, "base")
            baseline = bus.pubsub_latency_probe(broker.address, n=50, payload_bytes=256, probe_id="base")
            responder.close()
            assert baseline.ok

            responder = bus.EchoResponder(broker.address, "delay", delay_fn=delay.sampler(99))
            delayed = bus.pubsub_latency_probe(broker.address, n=n, payload_bytes=256, probe_id="delay")
            responder.close()
        finally:
            broker.stop()
        assert delayed.ok and delayed.stats.n == n
        expected = 50.0 + baseline.stats.mean_ms
        assert abs(delayed.stats.mean_ms - expected) <= 0.1 * expected, (
            f"pubsub mean {delayed.stats.mean_ms:.2f} vs expected {expected:.2f}"
        )
        _stats_match_oracle(delayed.stats, delayed.samples_ms)

        server = bus.ProbeHttpServer().start()
        try:
            baseline = bus.http_latency_probe(server.address, n=50, payload_bytes=256)
            assert baseline.ok
        finally:
            server.stop()
        server = bus.ProbeHttpServer(delay_fn=delay.sampler(99)).start()
        try:
            delayed = bus.http_latency_probe(server.address, n=n, payload_bytes=256)
        finally:
            server.stop()
        assert delayed.ok and delayed.stats.n == n
        expected = 50.0 + baseline.stats.mean_ms
        assert abs(delayed.stats.mean_ms - expected) <= 0.1 * expected, (
            f"http mean {delayed.stats.mean_ms:.2f} vs expected {expected:.2f}"
        )
        _stats_match_oracle(delayed.stats, delayed.samples_ms)


def test_6_rules_engine_matches_naive_oracle():
    with criterion(6, "rules engine vs naive oracle, 1000 cases", 10.0):
        rng = random.Random(0xC0FFEE)
        paths = ("app.fps", "model.model_efficiency", "energy.power_w", "network.dl_mbps", "app.ee_latency_ms")
        ranges = {
            "app.fps": (0.0, 200.0),
            "model.model_efficiency": (0.0, 2.0),
            "energy.power_w": (5.0, 30.0),
            "network.dl_mbps": (0.0, 60.0),
            "app.ee_latency_ms": (5.0, 500.0),
        }
        template = ActionTemplate(action=ActionKind.STEP_FREQUENCY_DOWN)
        for _case in range(1000):
            rules = [
                Rule(
                    rule_id=f"r{idx}",
                    metric_path=(path := rng.choice(paths)),
                    comparator=rng.choice(list(Comparator)),
                    threshold=rng.uniform(*ranges[path]),
                    action=template,
                    cooldown_ticks=rng.randint(1, 6),
                    consecutive_required=rng.randint(1, 4),
                )
                for idx in range(rng.randint(1, 5))
            ]
            snapshots = [random_snapshot(rng, seq=i, device_id="dev0") for i in range(rng.randint(1, 100))]
            states = {}
            engine = []
            for snap in snapshots:
                firings, states = evaluate_rules(snap, rules, states)
                engine.append([f.rule_id for f in firings])
            assert engine == naive_fire_sequence(rules, snapshots)


def test_7_serialization_roundtrip_and_fuzz():
    with criterion(7, "serialization round-trip and decoder fuzz", 10.0):
        rng = random.Random(0x5EED)
        for i in range(1000):
            snap = random_snapshot(rng, seq=i)
            raw = encode_snapshot(snap)
            again = decode_snapshot(raw)
            assert again == snap
            assert encode_snapshot(again) == raw  # byte-exact

        fuzz_rng = random.Random(0xF022)
        template = encode_snapshot(random_snapshot(fuzz_rng))
        crashes = 0
        for i in range(1000):
            mode = fuzz_rng.random()
            if mode < 0.4:
                raw = bytes(fuzz_rng.randrange(256) for _ in range(fuzz_rng.randrange(0, 120)))
            elif mode < 0.8:
                mutated = bytearray(template)
                for _ in range(fuzz_rng.randint(1, 8)):
                    mutated[fuzz_rng.randrange(len(mutated))] = fuzz_rng.randrange(256)
                raw = bytes(mutated)
            else:
                raw = template[: fuzz_rng.randrange(len(template))]
            try:
                decode_snapshot(raw)
            except TelemetryError:
                pass
            except Exception:
                crashes += 1
        assert crashes == 0


def test_8_predictor_recovery():
    with criterion(8, "bandwidth predictor recovery", 5.0):
        coeffs = LinearCoeffs(b0=20.0, b_rsrp=2.0, b_rsrq=1.0, b_rssi=0.5, b_hist=0.3)

        def regime(noise):
            return RegimeSpec(
                duration_ticks=10_000,
                rsrp_mean_dbm=-100.0,
                rsrp_std=20.0,
                rsrq_mean_db=-12.0,
                rsrq_std=6.0,
                rssi_offset_db=30.0,
                true_coeffs=coeffs,
                noise_std_mbps=noise,
                rssi_jitter_std=10.0,
            )

        predictor = BandwidthPredictor(PredictorConfig(window=60, ridge_lambda=1e-9))
        for net, _ in gen_trace(NetTraceConfig(seed=31, regimes=(regime(0.0),)), 80):
            predictor.update(net, net.dl_mbps)
        assert np.allclose(predictor.coefficients, coeffs.as_tuple(), atol=1e-4)

        predictor = BandwidthPredictor(PredictorConfig(window=30))
        trace = gen_trace(NetTraceConfig(seed=32, regimes=(regime(2.0),)), 200)
        for net, _ in trace[:100]:
            predictor.update(net, net.dl_mbps)
        sq_errors = []
        for net, true_dl in trace[100:]:
            sq_errors.append((predictor.predict(net) - true_dl) ** 2)
            predictor.update(net, net.dl_mbps)
        rmse = math.sqrt(sum(sq_errors) / len(sq_errors))
        assert rmse <= 2.5, f"held-out RMSE {rmse:.3f} Mbps"


def test_9_lake_integrity(tmp_path):
    with criterion(9, "lake replay determinism and query oracle", 10.0):
        # byte-identical replay under the logical clock
        spec = load_scenario(SCENARIO_DIR / "scenario_fps_cap.json")
        run_scenario(spec, tmp_path / "a")
        run_scenario(spec, tmp_path / "b")
        files_a = sorted((tmp_path / "a" / "lake").rglob("*.jsonl"))
        files_b = sorted((tmp_path / "b" / "lake").rglob("*.jsonl"))
        assert files_a and [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

        # query equals an independent full-scan oracle on 10,000 records
        rng = random.Random(90210)
        clock = {"now": 0}
        service = CloudService(
            lake=Lake(tmp_path / "big"),
            rules=RuleSet(),
            clock_ms=lambda: clock["now"],
        )
        devices = ("dev0", "dev1", "dev2")
        for i in range(10_000):
            clock["now"] += rng.randint(0, 2000)  # spans several day partitions
            snap = random_snapshot(rng, seq=i, device_id=rng.choice(devices))
            service.ingest(encode_snapshot(snap), Transport.PUBSUB)

        lake = service.lake
        lo, hi = 2_000_000, 8_000_000
        for device in devices:
            oracle = []
            for path in sorted((lake.root / device).glob("*.jsonl")):
                for line in path.read_bytes().splitlines():
                    doc = json.loads(line)
                    if lo <= doc["ingest_time_ms"] < hi:
                        oracle.append(doc["record_id"])
            got = [r.record_id for r in lake.query(device, lo, hi)]
            assert got == oracle
            assert got == sorted(got)
