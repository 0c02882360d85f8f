import hashlib
import json
import random
import socket
import threading
import time

import pytest

from conftest import read_frame
from edgetelem.agent import (
    ActionError,
    ActionKind,
    ActionMessage,
    AgentConfig,
    BusPublisher,
    DirectPublisher,
    ModelNotFound,
    PublishDown,
    StoreUnavailable,
    TelemetryAgent,
    decode_action,
    encode_action,
    fetch_model,
)
from edgetelem import bus
from edgetelem.bandwidth import Placement
from edgetelem.cloud import ModelStore, ModelStoreHttpServer
from edgetelem.simulator import Platform, PlatformConfig, builtin_profiles, make_model_blob
from edgetelem.telemetry import DeviceIdentity, decode_snapshot

PROFILES = builtin_profiles()
YOLO = PROFILES["yolov3"]
SSD = PROFILES["ssd_resnet50_fpn"]


def action(kind, *, rule_id="r", seq=0, **kw) -> ActionMessage:
    return ActionMessage(action=kind, rule_id=rule_id, issued_at_ms=0, seq=seq, **kw)


def local_fetch(model_id: str):
    profile = PROFILES.get(model_id)
    if profile is None:
        raise ModelNotFound(model_id)
    blob = make_model_blob(model_id, profile.artifact_size_bytes)
    return blob, profile.artifact_digest


def build_agent(max_ticks=None, sink=None, fetch=local_fetch, publisher=None):
    captured = sink if sink is not None else []
    if publisher is None:
        publisher = DirectPublisher(lambda topic, payload: captured.append((topic, payload)))
    agent = TelemetryAgent(
        cfg=AgentConfig(device=DeviceIdentity(device_id="dev0"), max_ticks=max_ticks),
        platform=Platform(),
        publisher=publisher,
        fetch_fn=fetch,
    )
    return agent, captured, publisher


class TestActionWire:
    def test_roundtrip_all_kinds(self):
        messages = [
            action(ActionKind.STEP_FREQUENCY_DOWN),
            action(ActionKind.STEP_FREQUENCY_UP, seq=1),
            action(ActionKind.SWAP_MODEL, model_id="ssd_resnet50_fpn", expected_digest=SSD.artifact_digest),
            action(ActionKind.SET_PLACEMENT, placement=Placement.DEVICE),
        ]
        for msg in messages:
            assert decode_action(encode_action(msg)) == msg

    def test_bytes_match_json_dumps(self):
        # The reference spells the wire format out by hand: keys in field order, absent options left out.
        messages = [
            action(ActionKind.STEP_FREQUENCY_DOWN, rule_id="r1-fps-cap", seq=2**40),
            action(ActionKind.STEP_FREQUENCY_UP, rule_id='quote" back\\ é ☃ \U0001f600', seq=1),
            action(ActionKind.SWAP_MODEL, model_id="ssd_résnet", expected_digest=SSD.artifact_digest),
            action(ActionKind.SET_PLACEMENT, placement=Placement.DEVICE),
            action(ActionKind.SET_PLACEMENT, rule_id="r3-placement", placement=Placement.EDGE, seq=7),
            action(ActionKind.STEP_FREQUENCY_DOWN, rule_id="\x00\x1f", model_id="m", expected_digest="x", seq=3),
            action(
                ActionKind.SWAP_MODEL, rule_id="ré\"", model_id="yolov3", expected_digest=YOLO.artifact_digest,
                placement=Placement.DEVICE, seq=2**63,
            ),
        ]
        for msg in messages:
            assert decode_action(encode_action(msg)) == msg
            doc = {"action": msg.action.value, "rule_id": msg.rule_id, "issued_at_ms": msg.issued_at_ms, "seq": msg.seq}
            if msg.model_id is not None:
                doc["model_id"] = msg.model_id
            if msg.expected_digest is not None:
                doc["expected_digest"] = msg.expected_digest
            if msg.placement is not None:
                doc["placement"] = msg.placement.value
            assert encode_action(msg) == json.dumps(doc, separators=(",", ":")).encode("utf-8")

    def test_swap_requires_hex_digest(self):
        with pytest.raises(ActionError):
            action(ActionKind.SWAP_MODEL, model_id="x", expected_digest="nothex")
        with pytest.raises(ActionError):
            action(ActionKind.SWAP_MODEL, model_id="x", expected_digest=None)

    def test_set_placement_requires_placement(self):
        with pytest.raises(ActionError):
            action(ActionKind.SET_PLACEMENT)

    def test_decode_rejects_unknown_fields(self):
        raw = json.loads(encode_action(action(ActionKind.STEP_FREQUENCY_DOWN)))
        raw["surprise"] = 1
        with pytest.raises(ActionError, match="surprise"):
            decode_action(json.dumps(raw).encode())

    def test_decode_rejects_missing_fields(self):
        with pytest.raises(ActionError):
            decode_action(b'{"action":"StepFrequencyDown"}')

    def test_decode_rejects_garbage(self):
        with pytest.raises(ActionError):
            decode_action(b"not json")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("issued_at_ms", "x"),
            ("issued_at_ms", 1.5),
            ("seq", [1]),
            ("seq", True),
            ("rule_id", 5),
            ("action", "Explode"),
            ("placement", 1),
        ],
    )
    def test_decode_rejects_wrong_types(self, key, value):
        raw = json.loads(encode_action(action(ActionKind.STEP_FREQUENCY_DOWN)))
        raw[key] = value
        with pytest.raises(ActionError, match=f"^{key}: "):
            decode_action(json.dumps(raw).encode())

    @pytest.mark.parametrize("key, value", [("model_id", 7), ("model_id", ["x"]), ("expected_digest", 5)])
    def test_decode_rejects_wrong_swap_types(self, key, value):
        raw = json.loads(encode_action(action(ActionKind.SWAP_MODEL, model_id="yolov3", expected_digest=YOLO.artifact_digest)))
        raw[key] = value
        with pytest.raises(ActionError, match=f"^{key}: "):
            decode_action(json.dumps(raw).encode())

    @pytest.mark.parametrize(
        "data", [b"[" * 100_000, b"\xff\xfe\x00", b"1", b"null", b"[]"], ids=["deep", "utf16", "int", "null", "array"]
    )
    def test_decode_rejects_non_objects(self, data):
        with pytest.raises(ActionError):
            decode_action(data)

    def test_malformed_action_from_the_bus_is_dropped_and_the_loop_runs(self, caplog):
        agent, captured, _ = build_agent()
        publisher = BusPublisher(("127.0.0.1", 1), "dev0", on_action=agent.enqueue_action)
        payload = json.dumps(
            {"action": "SwapModel", "rule_id": "r2", "issued_at_ms": 0, "seq": 0,
             "model_id": ["x"], "expected_digest": YOLO.artifact_digest}
        ).encode()
        with caplog.at_level("WARNING", logger="edgetelem.agent"):
            publisher._handle_action("actions/dev0", payload)
        assert "dropping malformed action for dev0: model_id: must be a string" in caplog.text
        agent.tick()
        assert agent.action_log == [] and len(captured) == 1


class TestSamplingLoop:
    def test_bounded_run_publishes_one_snapshot_per_tick(self):
        agent, captured, _ = build_agent(max_ticks=5)
        report = agent.run()
        assert report.ticks == 5
        assert len(captured) == 5
        snaps = [decode_snapshot(p) for _, p in captured]
        assert [s.seq for s in snaps] == [0, 1, 2, 3, 4]
        assert all(t == "telemetry/dev0" for t, _ in captured)

    def test_action_applies_between_ticks(self):
        agent, captured, _ = build_agent()
        agent.tick()
        agent.enqueue_action(action(ActionKind.STEP_FREQUENCY_DOWN))
        agent.tick()
        before, after = (decode_snapshot(p) for _, p in captured)
        assert after.app.fps < before.app.fps
        assert after.energy.power_w < before.energy.power_w

    def test_snapshot_reflects_single_consistent_state(self):
        # several queued actions all land before the next sample
        agent, captured, _ = build_agent()
        agent.tick()
        for _ in range(3):
            agent.enqueue_action(action(ActionKind.STEP_FREQUENCY_DOWN))
        agent.tick()
        after = decode_snapshot(captured[-1][1])
        assert after.app.ee_latency_ms == pytest.approx(4.4 + 25.0 / 0.55, rel=1e-9)


class TestApplyAction:
    def test_step_down_at_bottom_rejected_bit_identical(self):
        agent, _, _ = build_agent()
        agent.platform.set_level(0)
        before = agent.platform.fingerprint()
        result = agent.apply_action(action(ActionKind.STEP_FREQUENCY_DOWN))
        assert not result.applied
        assert result.reason == "at_bound"
        assert agent.platform.fingerprint() == before

    def test_step_up_at_top_rejected(self):
        agent, _, _ = build_agent()
        result = agent.apply_action(action(ActionKind.STEP_FREQUENCY_UP))
        assert (result.applied, result.reason) == (False, "at_bound")

    def test_swap_with_correct_digest(self):
        agent, _, _ = build_agent()
        result = agent.apply_action(
            action(ActionKind.SWAP_MODEL, model_id="ssd_resnet50_fpn", expected_digest=SSD.artifact_digest)
        )
        assert result.applied
        assert agent.platform.active_model.model_id == "ssd_resnet50_fpn"
        assert agent.platform.latency_ms() == pytest.approx(200.0)

    def test_swap_with_wrong_digest_rejected(self):
        agent, _, _ = build_agent()
        before = agent.platform.fingerprint()
        wrong = hashlib.sha256(b"unrelated").hexdigest()
        result = agent.apply_action(action(ActionKind.SWAP_MODEL, model_id="ssd_resnet50_fpn", expected_digest=wrong))
        assert (result.applied, result.reason) == (False, "integrity")
        assert agent.platform.fingerprint() == before
        assert agent.platform.active_model.model_id == "yolov3"

    def test_swap_unknown_model_rejected(self):
        agent, _, _ = build_agent()
        result = agent.apply_action(action(ActionKind.SWAP_MODEL, model_id="mystery", expected_digest="0" * 64))
        assert (result.applied, result.reason) == (False, "not_found")

    def test_swap_to_a_model_the_platform_cannot_run_is_rejected_before_the_fetch(self):
        # yolov3's 29.4 ms does not exceed a CPU overhead of as much; the swap used to raise out of tick().
        fetched = []
        agent = TelemetryAgent(
            cfg=AgentConfig(device=DeviceIdentity(device_id="dev0")),
            platform=Platform(PlatformConfig(cpu_overhead_ms=YOLO.base_latency_ms), SSD),
            publisher=DirectPublisher(lambda topic, payload: None),
            fetch_fn=lambda model_id: fetched.append(model_id) or local_fetch(model_id),
        )
        before = agent.platform.fingerprint()
        result = agent.apply_action(
            action(ActionKind.SWAP_MODEL, model_id="yolov3", expected_digest=YOLO.artifact_digest)
        )
        assert (result.applied, result.reason, fetched) == (False, "unsupported", [])
        assert agent.platform.fingerprint() == before
        agent.enqueue_action(action(ActionKind.SWAP_MODEL, model_id="yolov3", expected_digest=YOLO.artifact_digest))
        agent.tick()  # the queued swap is rejected as well, and the loop goes on
        assert agent.report().actions_rejected == 1
        assert agent.platform.active_model.model_id == "ssd_resnet50_fpn"

    def test_config_bounds(self):
        device = DeviceIdentity(device_id="dev0")
        assert AgentConfig(device=device, max_ticks=None).max_ticks is None
        with pytest.raises(ValueError, match=r"^max_ticks: must be > 0, got 0$"):
            AgentConfig(device=device, max_ticks=0)
        with pytest.raises(ValueError, match=r"^sample_period_ms: must be >= 10, got 9$"):
            AgentConfig(device=device, sample_period_ms=9)
        for value in (None, True, 10.0):  # only an optional field takes None; a bool is no int
            with pytest.raises(ValueError, match=r"^sample_period_ms: must be an integer$"):
                AgentConfig(device=device, sample_period_ms=value)

    def test_placement_tags_subsequent_snapshots(self):
        agent, captured, _ = build_agent()
        agent.tick()
        agent.enqueue_action(action(ActionKind.SET_PLACEMENT, placement=Placement.DEVICE))
        agent.tick()
        agent.enqueue_action(action(ActionKind.SET_PLACEMENT, placement=Placement.EDGE, seq=1))
        agent.tick()
        ids = [decode_snapshot(p).model.model_id for _, p in captured]
        assert ids == ["yolov3", "yolov3@device", "yolov3@edge"]
        assert agent.report().placement == "Edge"

    def test_report_counts_applied_and_rejected(self):
        agent, _, _ = build_agent()
        agent.tick()
        agent.enqueue_action(action(ActionKind.STEP_FREQUENCY_UP))           # rejected at_bound
        agent.enqueue_action(action(ActionKind.STEP_FREQUENCY_DOWN, seq=1))  # applied
        agent.tick()
        report = agent.report()
        assert report.actions_applied == 1
        assert report.actions_rejected == 1


class TestOutageBuffering:
    def test_outage_buffers_and_replays_in_order(self):
        agent, captured, publisher = build_agent()
        for tick in range(10):
            publisher.down = tick in (3, 4, 5)
            agent.tick()
        seqs = [decode_snapshot(p).seq for _, p in captured]
        assert seqs == list(range(10))  # all delivered once, in order
        assert agent.report().dropped_snapshots == 0

    def test_long_outage_drops_oldest(self):
        agent, captured, publisher = build_agent()
        publisher.down = True
        for _ in range(70):
            agent.tick()
        publisher.down = False
        for _ in range(9):  # reconnect backoff is capped at 8 s
            agent.tick()
        seqs = [decode_snapshot(p).seq for _, p in captured]
        dropped = agent.report().dropped_snapshots
        # buffer holds 64: oldest beyond that are gone, order preserved
        assert dropped >= 6
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert seqs[-1] == 78
        assert len(seqs) == 79 - dropped

    def test_unacknowledged_subscribe_closes_the_session(self, monkeypatch):
        # A session left open would keep its client id at the broker, which then refuses every reconnect.
        kinds = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5.0)

            def broker_without_suback():
                conn, _ = listener.accept()
                with conn:
                    conn.settimeout(5.0)
                    kinds.append(read_frame(conn).kind)
                    conn.sendall(bus.encode_frame(bus.Frame(kind=bus.FrameKind.CONNACK, code=0)))
                    while (frame := read_frame(conn)) is not None:
                        kinds.append(frame.kind)
                    kinds.append("EOF")

            server = threading.Thread(target=broker_without_suback)
            server.start()
            monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 0.3)
            publisher = BusPublisher(listener.getsockname(), "dev1")
            with pytest.raises(PublishDown, match="subscribe not acknowledged in time"):
                publisher.publish("telemetry/dev1", b"x")
            server.join(5.0)
        assert not server.is_alive()
        K = bus.FrameKind
        assert kinds == [K.CONNECT, K.SUBSCRIBE, K.DISCONNECT, "EOF"]


class TestModelStoreFetch:
    @pytest.fixture
    def store_server(self, tmp_path):
        blobs = {
            model_id: make_model_blob(model_id, profile.artifact_size_bytes)
            for model_id, profile in PROFILES.items()
        }
        store = ModelStore.create(tmp_path / "models", blobs)
        server = ModelStoreHttpServer(store).start()
        yield server, store
        server.stop()

    def test_fetch_known_model(self, store_server):
        server, _ = store_server
        blob, digest = fetch_model(server.address, "yolov3")
        assert hashlib.sha256(blob).hexdigest() == YOLO.artifact_digest
        assert digest == YOLO.artifact_digest

    def test_fetch_unknown_model(self, store_server):
        server, _ = store_server
        with pytest.raises(ModelNotFound):
            fetch_model(server.address, "nonexistent")

    def test_large_blob_goes_out_in_partial_writes(self, tmp_path, monkeypatch):
        big = random.Random(4).randbytes(4 << 20)
        store = ModelStore.create(
            tmp_path / "big", {"big": big, "yolov3": make_model_blob("yolov3", YOLO.artifact_size_bytes)}
        )
        server = ModelStoreHttpServer(store).start()
        try:
            with socket.socket() as slow:
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.settimeout(10.0)
                slow.connect(server.address)
                slow.sendall(b"GET /models/big HTTP/1.1\r\nConnection: close\r\n\r\n")
                time.sleep(0.2)  # the unread reply fills the socket buffers; the rest waits on the server
                monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 2.0)
                blob, digest = fetch_model(server.address, "yolov3")
                assert hashlib.sha256(blob).hexdigest() == digest == YOLO.artifact_digest
                reply = bytearray()
                while chunk := slow.recv(1 << 16):
                    reply += chunk
            head, _, body = bytes(reply).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 ")
            assert body == big
            blob, digest = fetch_model(server.address, "big")
            assert blob == big
            assert digest == hashlib.sha256(big).hexdigest()
        finally:
            server.stop()

    def test_a_mute_store_fails_the_fetch_after_the_client_timeout(self, monkeypatch):
        monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 0.3)
        with socket.create_server(("127.0.0.1", 0)) as mute:  # the kernel accepts; nothing ever answers
            start = time.monotonic()
            with pytest.raises(StoreUnavailable):
                fetch_model(mute.getsockname(), "yolov3")
            assert time.monotonic() - start < 1.0

    def test_truncated_blob_detected_by_digest(self, store_server, tmp_path):
        server, store = store_server
        path = store.root / "ssd_resnet50_fpn.bin"
        path.write_bytes(path.read_bytes()[:-100])  # fault injection: truncation
        agent, _, _ = build_agent(fetch=lambda mid: fetch_model(server.address, mid))
        result = agent.apply_action(
            action(ActionKind.SWAP_MODEL, model_id="ssd_resnet50_fpn", expected_digest=SSD.artifact_digest)
        )
        assert (result.applied, result.reason) == (False, "integrity")
        assert agent.platform.active_model.model_id == "yolov3"
