import math
import queue
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot
from edgetelem import bus
from edgetelem.bus import (
    Broker,
    ConnectRefused,
    ConnectTimeout,
    DelaySpec,
    DuplicateClientId,
    EchoResponder,
    Frame,
    FrameError,
    FrameKind,
    IngestHttpServer,
    LatencyStats,
    RequestRejected,
    BackendUnavailable,
    compute_stats,
    connect,
    decode_frame,
    encode_frame,
    http_latency_probe,
    http_post_snapshot,
    pubsub_latency_probe,
    topic_matches,
)
from edgetelem.telemetry import encode_snapshot


@pytest.fixture
def broker():
    b = Broker().start()
    yield b
    b.stop()


def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFraming:
    FRAMES = [
        Frame(kind=FrameKind.CONNECT, client_id="dev0"),
        Frame(kind=FrameKind.CONNACK, code=0),
        Frame(kind=FrameKind.CONNACK, code=2),
        Frame(kind=FrameKind.SUBSCRIBE, topic="telemetry/+"),
        Frame(kind=FrameKind.SUBACK, code=0),
        Frame(kind=FrameKind.PUBLISH, topic="telemetry/dev0", payload=b"\x00\x01payload"),
        Frame(kind=FrameKind.PUBLISH, topic="a", payload=b""),
        Frame(kind=FrameKind.PINGREQ),
        Frame(kind=FrameKind.PINGRESP),
        Frame(kind=FrameKind.DISCONNECT),
    ]

    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.kind.name + "/" + f.topic)
    def test_roundtrip(self, frame):
        assert decode_frame(encode_frame(frame)) == frame

    def test_invalid_topic_shapes(self):
        for topic in ("", "a//b", "/a", "a/", "sp ace", "tele*metry"):
            with pytest.raises(FrameError):
                Frame(kind=FrameKind.PUBLISH, topic=topic)

    def test_topic_size_limit(self):
        with pytest.raises(FrameError):
            Frame(kind=FrameKind.PUBLISH, topic="x" * 257)

    def test_payload_size_limit(self):
        with pytest.raises(FrameError):
            Frame(kind=FrameKind.PUBLISH, topic="t", payload=b"x" * (bus.MAX_PAYLOAD + 1))

    def test_truncated_and_trailing_bytes(self):
        raw = encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t", payload=b"zz"))
        with pytest.raises(FrameError):
            decode_frame(raw[:-1])
        with pytest.raises(FrameError):
            decode_frame(raw + b"\x00")

    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_fuzzed_decode_never_crashes(self, raw):
        try:
            decode_frame(raw)
        except FrameError:
            pass

    def test_wildcard_matching(self):
        assert topic_matches("telemetry/+", "telemetry/dev1")
        assert not topic_matches("telemetry/+", "telemetry/dev1/extra")
        assert not topic_matches("telemetry/+", "actions/dev1")
        assert topic_matches("a/+/c", "a/b/c")
        assert topic_matches("exact", "exact")
        assert not topic_matches("exact", "exactly")


class TestBrokerRouting:
    def test_wildcard_delivery(self, broker):
        sub = connect(broker.address, "sub")
        pub = connect(broker.address, "pub")
        inbox = queue.Queue()
        sub.subscribe("telemetry/+", lambda t, p: inbox.put((t, p)))
        pub.publish("telemetry/dev1", b"hello")
        topic, payload = inbox.get(timeout=5)
        assert (topic, payload) == ("telemetry/dev1", b"hello")
        sub.close()
        pub.close()

    def test_publish_without_subscribers_is_dropped(self, broker):
        pub = connect(broker.address, "pub")
        pub.publish("nobody/home", b"x")
        # broker stays healthy: a subsequent subscribe+publish flows
        inbox = queue.Queue()
        sub = connect(broker.address, "sub")
        sub.subscribe("nobody/home", lambda t, p: inbox.put(p))
        pub.publish("nobody/home", b"y")
        assert inbox.get(timeout=5) == b"y"
        sub.close()
        pub.close()

    def test_fanout_identical_bytes(self, broker):
        payload = bytes(range(256))
        boxes = [queue.Queue(), queue.Queue()]
        subs = []
        for i, box in enumerate(boxes):
            s = connect(broker.address, f"sub{i}")
            s.subscribe("fan/out", box.put_nowait if False else (lambda t, p, b=box: b.put(p)))
            subs.append(s)
        pub = connect(broker.address, "pub")
        pub.publish("fan/out", payload)
        for box in boxes:
            assert box.get(timeout=5) == payload
        for s in subs:
            s.close()
        pub.close()

    def test_per_publisher_order(self, broker):
        received = []
        done = threading.Event()
        sub = connect(broker.address, "sub")

        def handler(_t, p):
            received.append(int.from_bytes(p, "big"))
            if len(received) == 1000:
                done.set()

        sub.subscribe("seq/stream", handler)
        pub = connect(broker.address, "pub")
        for i in range(1000):
            pub.publish("seq/stream", i.to_bytes(4, "big"))
        assert done.wait(10.0)
        assert received == list(range(1000))
        sub.close()
        pub.close()

    def test_duplicate_client_id_rejected(self, broker):
        first = connect(broker.address, "same-id")
        with pytest.raises(DuplicateClientId):
            connect(broker.address, "same-id")
        first.close()
        # after the original disconnects the id becomes available again
        assert wait_for(lambda: _can_connect(broker.address, "same-id"))

    def test_connect_refused_on_dead_port(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        address = sock.getsockname()[:2]
        sock.close()
        with pytest.raises(ConnectRefused):
            connect(address, "ghost")

    def test_connect_timeout_on_silent_server(self):
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            with pytest.raises(ConnectTimeout):
                connect(silent.getsockname()[:2], "patient", timeout=0.3)
        finally:
            silent.close()

    def test_invalid_filter_rejected_client_side(self, broker):
        session = connect(broker.address, "filters")
        with pytest.raises(FrameError):
            session.subscribe("a//b", lambda t, p: None)
        session.close()

    def test_publish_wildcard_topic_rejected(self, broker):
        session = connect(broker.address, "wild")
        with pytest.raises(FrameError):
            session.publish("a/+/b", b"x")
        session.close()


def _can_connect(address, client_id) -> bool:
    try:
        s = connect(address, client_id, timeout=1.0)
    except bus.BusError:
        return False
    s.close()
    return True


class TestLatencyStats:
    def test_hand_computed(self):
        stats = compute_stats([200.0, 300.0, 400.0])
        assert stats.mean_ms == pytest.approx(300.0)
        assert stats.min_ms == 200.0
        assert stats.max_ms == 400.0
        assert stats.stddev_ms == pytest.approx(100.0)  # sample (n-1) estimator
        assert stats.n == 3

    def test_single_sample(self):
        stats = compute_stats([42.0])
        assert stats.stddev_ms == 0.0
        assert stats.mean_ms == stats.min_ms == stats.max_ms == 42.0

    def test_all_equal_gives_zero_stddev(self):
        assert compute_stats([7.0] * 10).stddev_ms == 0.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            LatencyStats(mean_ms=1.0, min_ms=2.0, max_ms=3.0, stddev_ms=0.0, n=2)
        with pytest.raises(ValueError):
            LatencyStats(mean_ms=2.0, min_ms=1.0, max_ms=3.0, stddev_ms=-0.1, n=2)

    @given(st.lists(st.floats(0.0, 1e5), min_size=1, max_size=100))
    def test_matches_brute_force_oracle(self, samples):
        stats = compute_stats(samples)
        n = len(samples)
        mean = math.fsum(samples) / n
        if n > 1:
            var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        assert math.isclose(stats.mean_ms, mean, rel_tol=1e-9, abs_tol=1e-9)
        assert stats.min_ms == min(samples)
        assert stats.max_ms == max(samples)
        assert math.isclose(stats.stddev_ms, std, rel_tol=1e-9, abs_tol=1e-9)


class TestDelaySpec:
    def test_parse_forms(self):
        assert DelaySpec.parse("normal:50:5") == DelaySpec(kind="normal", mean_ms=50.0, std_ms=5.0)
        assert DelaySpec.parse("constant:25") == DelaySpec(kind="constant", mean_ms=25.0)

    def test_parse_errors(self):
        for text in ("", "normal:5", "uniform:1:2", "constant:a"):
            with pytest.raises(ValueError):
                DelaySpec.parse(text)

    def test_sampler_deterministic_and_nonnegative(self):
        spec = DelaySpec(kind="normal", mean_ms=5.0, std_ms=10.0)
        a = [spec.sampler(3)(i) for i in range(50)]
        b = [spec.sampler(3)(i) for i in range(50)]
        assert a == b
        assert all(x >= 0.0 for x in a)


class TestHttpIngest:
    def test_valid_snapshot_acked(self):
        acks = []

        def backend(payload: bytes) -> dict:
            acks.append(payload)
            return {"record_id": len(acks) - 1, "ingest_time_ms": 1234}

        server = IngestHttpServer(backend).start()
        try:
            raw = encode_snapshot(make_snapshot())
            ack = http_post_snapshot(server.address, raw)
            assert ack == {"record_id": 0, "ingest_time_ms": 1234}
            assert acks == [raw]
        finally:
            server.stop()

    def test_rejected_body_maps_to_400(self):
        def backend(payload: bytes) -> dict:
            raise RequestRejected("missing field device_id")

        server = IngestHttpServer(backend).start()
        try:
            with pytest.raises(RequestRejected, match="device_id"):
                http_post_snapshot(server.address, b"{}")
        finally:
            server.stop()

    def test_backend_failure_maps_to_503(self):
        def backend(payload: bytes) -> dict:
            raise RuntimeError("lake on fire")

        server = IngestHttpServer(backend).start()
        try:
            with pytest.raises(BackendUnavailable):
                http_post_snapshot(server.address, encode_snapshot(make_snapshot()))
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "length_header, status",
        [
            (f"Content-Length: {bus.MAX_PAYLOAD + 1}\r\n", 413),
            ("", 400),
            ("Content-Length: -1\r\n", 400),
            ("Content-Length: 12abc\r\n", 400),
        ],
        ids=["oversized", "missing", "negative", "non_integer"],
    )
    def test_content_length_checked_before_reading_body(self, length_header, status):
        calls = []
        server = IngestHttpServer(lambda payload: calls.append(payload) or {}).start()
        try:
            with socket.create_connection(server.address, timeout=2.0) as sock:
                sock.sendall(f"POST /ingest HTTP/1.1\r\nHost: test\r\n{length_header}\r\n".encode())
                reply = b""
                while chunk := sock.recv(4096):  # the server closes after refusing
                    reply += chunk
        finally:
            server.stop()
        assert reply.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in reply
        assert calls == []


class TestLatencyProbe:
    def test_pubsub_loopback(self, broker):
        responder = EchoResponder(broker.address, "t1")
        try:
            report = pubsub_latency_probe(broker.address, n=20, payload_bytes=64, probe_id="t1")
        finally:
            responder.close()
        assert report.ok
        assert report.stats.n == 20
        assert report.stats.min_ms <= report.stats.mean_ms <= report.stats.max_ms
        assert report.stats.mean_ms < 50.0  # loopback, no injected delay

    def test_pubsub_injected_constant_delay(self, broker):
        delay = DelaySpec(kind="constant", mean_ms=30.0).sampler(0)
        responder = EchoResponder(broker.address, "t2", delay_fn=delay)
        try:
            report = pubsub_latency_probe(broker.address, n=5, payload_bytes=64, probe_id="t2")
        finally:
            responder.close()
        assert report.ok
        assert report.stats.min_ms >= 30.0

    def test_pubsub_timeout_yields_partial_report(self, broker):
        # no responder: every probe times out, per-index status preserved
        report = pubsub_latency_probe(broker.address, n=3, payload_bytes=16, probe_id="t3", timeout=0.2)
        assert report.stats is None
        assert report.statuses == ["timeout"] * 3

    def test_http_loopback(self):
        server = IngestHttpServer(lambda p: {"ok": True}).start()
        try:
            report = http_latency_probe(server.address, n=20, payload_bytes=64)
        finally:
            server.stop()
        assert report.ok
        assert report.stats.n == 20
        assert report.stats.mean_ms < 50.0

    def test_payload_floor(self, broker):
        with pytest.raises(ValueError):
            pubsub_latency_probe(broker.address, n=1, payload_bytes=4)
