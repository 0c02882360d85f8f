import contextlib
import errno
import json
import math
import queue
import re
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot, read_exact, read_frame
from edgetelem import bus
from edgetelem.agent import fetch_model
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
    ProbeHttpServer,
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
from edgetelem.cloud import ModelStore, ModelStoreHttpServer
from edgetelem.simulator import make_model_blob
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


def http_post(body: bytes, path: str = "/ingest", headers: str = "") -> bytes:
    return f"POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n{headers}\r\n".encode() + body


def read_replies(sock, count: int) -> list:
    """Read ``count`` HTTP replies off ``sock`` as ``(status, head, body)``."""
    buf, replies = b"", []
    while len(replies) < count:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            head = buf[:end].decode("latin-1")
            length = re.search(r"\r\nContent-Length: (\d+)", head)
            stop = end + 4 + (int(length.group(1)) if length else 0)
            if len(buf) >= stop:
                replies.append((int(head.split(" ")[1]), head, buf[end + 4 : stop]))
                buf = buf[stop:]
                continue
        chunk = sock.recv(65536)
        assert chunk, f"connection closed after {len(replies)} replies"
        buf += chunk
    return replies


@pytest.fixture
def ingest_server():
    """An ingest server whose backend numbers the bodies it receives."""
    bodies = []

    def backend(payload: bytes) -> dict:
        bodies.append(payload)
        return {"record_id": len(bodies) - 1}

    server = IngestHttpServer(backend).start()
    yield server, bodies
    server.stop()


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

    def test_any_failed_tcp_connect_is_a_bus_error(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise OSError(errno.EHOSTUNREACH, "No route to host")

        monkeypatch.setattr(socket, "create_connection", unreachable)
        with pytest.raises(bus.BusError, match="No route to host"):
            connect(("broker.invalid", 1883), "ghost")

    def test_close_ends_the_receive_thread_without_the_peer(self):
        # The peer never answers DISCONNECT nor closes: only a shutdown wakes the session's recv.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            ours = socket.create_connection(listener.getsockname())
            theirs, _ = listener.accept()
            with theirs:
                session = bus.Session(ours, "dev0")
                theirs.sendall(encode_frame(Frame(kind=FrameKind.SUBACK, code=0)))
                assert session._acks.get(timeout=5.0) == (FrameKind.SUBACK, 0)  # the receive thread is past its first recv
                session.close()
                session._reader.join(5.0)
                assert not session._reader.is_alive()

    def test_connect_timeout_on_silent_server(self, monkeypatch):
        monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 0.3)
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            with pytest.raises(ConnectTimeout):
                connect(silent.getsockname()[:2], "patient")
        finally:
            silent.close()

    def test_connect_and_subscribe_fail_at_once_when_the_broker_closes(self):
        connack = encode_frame(Frame(kind=FrameKind.CONNACK, code=0))
        cases = {
            "connect": {FrameKind.CONNECT: None},
            "subscribe": {FrameKind.CONNECT: connack, FrameKind.SUBSCRIBE: None},
        }
        for failing, replies in cases.items():
            with socket.create_server(("127.0.0.1", 0)) as listener:
                server, _ = fake_broker(listener, replies)
                start = time.monotonic()
                with pytest.raises(bus.BusError):
                    connect(listener.getsockname(), "dev0").subscribe("actions/dev0", lambda t, p: None)
                assert time.monotonic() - start < 1.0, failing
                server.join(5.0)

    def test_refused_handshake_sends_disconnect(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            duplicate = encode_frame(Frame(kind=FrameKind.CONNACK, code=2))
            server, kinds = fake_broker(listener, {FrameKind.CONNECT: duplicate})
            with pytest.raises(DuplicateClientId):
                connect(listener.getsockname(), "dev0")
            server.join(5.0)
        assert kinds == [FrameKind.CONNECT, FrameKind.DISCONNECT, "EOF"]

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


def fake_broker(listener, replies: dict) -> tuple:
    """Serve one client of ``listener`` from a thread, answering each frame kind in ``replies`` with its
    bytes (None closes the connection); returns the thread and the kinds it read, then "EOF" if the client closed."""
    kinds = []

    def serve():
        listener.settimeout(5.0)
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            while (frame := read_frame(conn)) is not None:
                kinds.append(frame.kind)
                if (reply := replies.get(frame.kind, b"")) is None:
                    return
                conn.sendall(reply)
            kinds.append("EOF")

    thread = threading.Thread(target=serve)
    thread.start()
    return thread, kinds


def raw_connect(address, client_id: str, rcvbuf: int = 0) -> socket.socket:
    """A raw socket past its CONNECT/CONNACK handshake."""
    sock = socket.socket()
    if rcvbuf:  # before connect, so the advertised window is small from the start
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(5.0)
    sock.connect(address)
    sock.sendall(encode_frame(Frame(kind=FrameKind.CONNECT, client_id=client_id)))
    assert read_frame(sock) == Frame(kind=FrameKind.CONNACK, code=0)
    return sock


def raw_subscribe(sock: socket.socket, filter_: str) -> None:
    sock.sendall(encode_frame(Frame(kind=FrameKind.SUBSCRIBE, topic=filter_)))
    assert read_frame(sock) == Frame(kind=FrameKind.SUBACK, code=0)


def publish_in_background(session, topic: str, payload: bytes, n: int, until=lambda: False) -> threading.Thread:
    """Publish ``n`` times, or until ``until()`` holds, from a daemon thread, so a
    broker that blocks the publisher fails a test instead of hanging it."""

    def flood():
        for _ in range(n):
            if until():
                return
            session.publish(topic, payload)

    thread = threading.Thread(target=flood, daemon=True)
    thread.start()
    return thread


class TestBrokerWire:
    def test_stalled_subscriber_does_not_stop_a_healthy_one(self, broker):
        stalled = raw_connect(broker.address, "stalled", rcvbuf=4096)
        raw_subscribe(stalled, "t/+")  # and never read again
        healthy, pub = connect(broker.address, "healthy"), connect(broker.address, "pub")
        got, done, own = [], threading.Event(), queue.Queue()

        def on_message(_topic, _payload):
            got.append(1)
            if len(got) == 20_000:
                done.set()

        try:
            healthy.subscribe("t/+", on_message)
            healthy.subscribe("own/+", lambda _t, p: own.put(p))
            # 8 MB: more than the kernel's socket buffers take, less than MAX_PEER_QUEUE
            publish_in_background(pub, "t/x", b"x" * 400, 20_000)
            assert done.wait(5.0), f"healthy subscriber got {len(got)} of 20000"
            # The broker still reads a peer whose queue is backed up.
            stalled.sendall(encode_frame(Frame(kind=FrameKind.PUBLISH, topic="own/stalled", payload=b"mine")))
            assert own.get(timeout=2.0) == b"mine"
            assert broker.dropped == 0
        finally:
            for closer in (stalled.close, healthy.close, pub.close):
                closer()

    def test_a_publish_sends_nothing_to_a_peer_that_waits_for_event_write(self):
        class FakeSocket:
            def __init__(self, full: bool):
                self.received, self.sent, self.full = b"", [], full

            def recv(self, _n):
                data, self.received = self.received, b""
                return data

            def send(self, data):
                self.sent.append(bytes(data))
                if self.full:
                    raise BlockingIOError
                return len(data)

        broker = Broker()  # not started: the test calls the loop's read itself
        peers = {name: bus._Peer(0.0) for name in ("pub", "ready", "waiting")}
        socks = {name: FakeSocket(full=name == "waiting") for name in peers}
        try:
            for name, peer in peers.items():
                hello = encode_frame(Frame(kind=FrameKind.CONNECT, client_id=name))
                if name != "pub":
                    hello += encode_frame(Frame(kind=FrameKind.SUBSCRIBE, topic="t/+"))
                broker._core.received(peer, 0.0, hello)
                peer.out.clear()
                broker._socks[peer] = socks[name]
            peers["waiting"].out += b"half-sent"
            broker._writing.add(peers["waiting"])
            publish = encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"p"))
            socks["pub"].received = publish
            broker._read(peers["pub"])
            assert socks["ready"].sent == [publish]
            assert socks["waiting"].sent == []  # no try at a full socket: its EVENT_WRITE sends
            assert peers["waiting"].out == b"half-sent" + publish
        finally:
            broker._socks.clear()
            broker.stop()

    def test_connected_peers_start_no_threads(self, broker):
        before = threading.active_count()
        peers = [raw_connect(broker.address, f"idle{i}") for i in range(32)]
        try:
            time.sleep(0.1)
            assert threading.active_count() == before
        finally:
            for sock in peers:
                sock.close()

    def test_echo_flood_counts_every_drop_and_never_stalls(self, monkeypatch):
        monkeypatch.setattr(bus, "MAX_PEER_QUEUE", 16 * 1024)
        broker = Broker().start()
        echo = EchoResponder(broker.address, "flood")
        flooder = connect(broker.address, "flooder")
        echoed = []
        try:
            flooder.subscribe("probe/flood/resp", lambda _t, p: echoed.append(p))
            sender = publish_in_background(flooder, "probe/flood/req", b"x" * 256, 30_000)
            sender.join(timeout=20.0)
            assert not sender.is_alive()
            assert wait_for(lambda: len(echoed) + broker.dropped == 30_000, timeout=10.0), (len(echoed), broker.dropped)
        finally:
            echo.close()
            flooder.close()
            broker.stop()

    def test_frames_sent_one_byte_per_send(self, broker):
        with socket.create_connection(broker.address, timeout=5.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

            def trickle(frame: Frame) -> Frame:
                for byte in encode_frame(frame):
                    sock.send(bytes([byte]))
                    time.sleep(0.0005)
                return read_frame(sock)

            assert trickle(Frame(kind=FrameKind.CONNECT, client_id="trickle")) == Frame(kind=FrameKind.CONNACK)
            assert trickle(Frame(kind=FrameKind.SUBSCRIBE, topic="t/+")) == Frame(kind=FrameKind.SUBACK)
            message = Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"hello")
            assert trickle(message) == message
            assert trickle(Frame(kind=FrameKind.PINGREQ)) == Frame(kind=FrameKind.PINGRESP)

    @pytest.mark.parametrize(
        "raw",
        [
            bytes([99]) + struct.pack(">I", 0),
            bytes([FrameKind.PUBLISH]) + struct.pack(">I", bus.MAX_BODY + 1),
            bytes([FrameKind.SUBSCRIBE]) + struct.pack(">I", 4) + b"\x00\x01tx",
            bytes([FrameKind.PUBLISH]) + struct.pack(">I", 1) + b"\x00",
            bytes([FrameKind.PUBLISH]) + struct.pack(">I", 4) + b"\x00\x09t/",
            bytes([FrameKind.PUBLISH]) + struct.pack(">I", 5) + b"\x00\x02\xff\xfex",
            bytes([FrameKind.PUBLISH]) + struct.pack(">I", 6) + b"\x00\x03t xy",
            bytes([FrameKind.PUBLISH])
            + struct.pack(">I", 4 + bus.MAX_PAYLOAD + 1)
            + b"\x00\x02t1"
            + b"x" * (bus.MAX_PAYLOAD + 1),
        ],
        ids=[
            "unknown_kind",
            "oversized_body",
            "trailing_filter_bytes",
            "truncated_topic_length",
            "topic_longer_than_body",
            "invalid_utf8_topic",
            "invalid_topic_characters",
            "payload_over_max_inside_max_body",
        ],
    )
    def test_malformed_frame_closes_only_its_sender(self, broker, raw):
        sub, pub = connect(broker.address, "sub"), connect(broker.address, "pub")
        inbox = queue.Queue()
        try:
            sub.subscribe("t/+", lambda _t, p: inbox.put(p))
            with raw_connect(broker.address, "bad") as bad:
                bad.sendall(raw)
                assert bad.recv(1) == b""
            pub.publish("t/x", b"still here")
            assert inbox.get(timeout=5.0) == b"still here"
        finally:
            sub.close()
            pub.close()

    def test_stop_closes_connected_sessions(self):
        broker = Broker().start()
        session = connect(broker.address, "held")
        start = time.monotonic()
        broker.stop()
        assert wait_for(lambda: session.closed, timeout=2.0)
        assert time.monotonic() - start < 1.0
        session.close()

    def test_publish_before_connect_closes_only_its_sender(self, broker):
        sub, pub = connect(broker.address, "sub"), connect(broker.address, "pub")
        inbox = queue.Queue()
        try:
            sub.subscribe("t/+", lambda _t, p: inbox.put(p))
            with socket.create_connection(broker.address, timeout=5.0) as bad:
                bad.sendall(encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"early")))
                assert bad.recv(1) == b""
            pub.publish("t/x", b"still here")
            assert inbox.get(timeout=5.0) == b"still here"
        finally:
            sub.close()
            pub.close()

    def test_wildcard_publish_is_dropped_and_its_sender_stays(self, broker):
        sub = connect(broker.address, "sub")
        inbox = queue.Queue()
        try:
            sub.subscribe("t/+", lambda t, p: inbox.put((t, p)))
            with raw_connect(broker.address, "wild") as sock:
                sock.sendall(encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t/+", payload=b"wild")))
                sock.sendall(encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"tame")))
                assert inbox.get(timeout=5.0) == ("t/x", b"tame")
                sock.sendall(encode_frame(Frame(kind=FrameKind.PINGREQ)))
                assert read_frame(sock) == Frame(kind=FrameKind.PINGRESP)
            assert inbox.empty()
        finally:
            sub.close()

    def test_a_peer_holds_each_filter_once_and_at_most_the_bound(self, broker):
        filters = [f"t/{i}" for i in range(bus.MAX_PEER_FILTERS)] + ["t/0", "t/one-more"]
        with raw_connect(broker.address, "greedy") as sock:
            subscribes = [encode_frame(Frame(kind=FrameKind.SUBSCRIBE, topic=f)) for f in filters]
            sock.sendall(b"".join(subscribes))
            codes = [read_frame(sock).code for _ in subscribes]
            assert codes == [0] * bus.MAX_PEER_FILTERS + [0, 1]  # a repeated filter is acknowledged; one more is not
            assert [len(held) for held in broker._core._subs.values()] == [bus.MAX_PEER_FILTERS]
            sock.sendall(encode_frame(Frame(kind=FrameKind.PINGREQ)))
            assert read_frame(sock) == Frame(kind=FrameKind.PINGRESP)  # refused, but still connected

    def test_overlapping_filters_deliver_one_frame(self, broker):
        pub = connect(broker.address, "pub")
        try:
            with raw_connect(broker.address, "overlap") as sock:
                raw_subscribe(sock, "t/+")
                raw_subscribe(sock, "t/x")
                pub.publish("t/x", b"once")
                pub.publish("t/y", b"fence")  # per-publisher order: every copy of the first comes before it
                frames = []
                while not frames or frames[-1].topic != "t/y":
                    frames.append(read_frame(sock))
            assert frames == [
                Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"once"),
                Frame(kind=FrameKind.PUBLISH, topic="t/y", payload=b"fence"),
            ]
        finally:
            pub.close()


class TestRouteTables:
    def test_overlapping_filters_call_each_handler_once(self, broker):
        sub, pub = connect(broker.address, "sub"), connect(broker.address, "pub")
        calls, fenced = [], threading.Event()
        try:
            sub.subscribe("t/+", lambda t, p: calls.append(("A", t)) or (t == "t/y" and fenced.set()))
            sub.subscribe("t/x", lambda t, p: calls.append(("B", t)))
            pub.publish("t/x", b"once")
            pub.publish("t/y", b"fence")
            assert fenced.wait(5.0)
            assert calls == [("A", "t/x"), ("B", "t/x"), ("A", "t/y")]
        finally:
            sub.close()
            pub.close()

    def test_subscribe_after_a_topic_is_cached_gets_the_next_publish(self, broker):
        first, second, pub = (connect(broker.address, name) for name in ("first", "second", "pub"))
        one, two = queue.Queue(), queue.Queue()
        try:
            first.subscribe("t/+", lambda _t, p: one.put(p))
            pub.publish("t/x", b"cached")
            assert one.get(timeout=5.0) == b"cached"
            second.subscribe("t/x", lambda _t, p: two.put(p))
            pub.publish("t/x", b"next")
            assert two.get(timeout=5.0) == b"next"
            assert one.get(timeout=5.0) == b"next"
        finally:
            for session in (first, second, pub):
                session.close()

    def test_session_subscribe_after_a_topic_is_cached_gets_the_next_publish(self, broker):
        sub, pub = connect(broker.address, "sub"), connect(broker.address, "pub")
        calls = queue.Queue()
        try:
            sub.subscribe("t/+", lambda _t, p: calls.put(("A", p)))
            pub.publish("t/x", b"cached")
            assert calls.get(timeout=5.0) == ("A", b"cached")
            sub.subscribe("t/x", lambda _t, p: calls.put(("B", p)))
            pub.publish("t/x", b"next")
            assert [calls.get(timeout=5.0) for _ in range(2)] == [("A", b"next"), ("B", b"next")]
        finally:
            sub.close()
            pub.close()

    def test_closed_subscriber_leaves_every_route(self, broker):
        stay, pub = connect(broker.address, "stay"), connect(broker.address, "pub")
        inbox = queue.Queue()
        try:
            stay.subscribe("t/+", lambda _t, p: inbox.put(p))
            with raw_connect(broker.address, "leaver") as leaver:
                raw_subscribe(leaver, "t/+")
                raw_subscribe(leaver, "t/x")
                pub.publish("t/x", b"both")
                assert inbox.get(timeout=5.0) == b"both"
            assert wait_for(lambda: _can_connect(broker.address, "leaver"))  # the broker saw the close
            for topic in ("t/x", "t/y"):
                pub.publish(topic, b"after")
                assert inbox.get(timeout=5.0) == b"after"
            routes = dict(broker._core._routes)
            assert routes and all(targets == routes[b"t/x"] for targets in routes.values())
            assert len(routes[b"t/x"]) == 1 and routes[b"t/x"][0].client_id == "stay"
        finally:
            stay.close()
            pub.close()

    def test_tables_stay_bounded_under_topic_churn(self, broker):
        sub, pub = connect(broker.address, "sub"), connect(broker.address, "pub")
        n = 2 * bus.MAX_CACHED_TOPICS
        got, done = [], threading.Event()

        def on_message(topic, payload):
            got.append((topic, payload))
            if len(got) == n:
                done.set()

        try:
            sub.subscribe("churn/+", on_message)
            sent = [(f"churn/t{i}", str(i).encode()) for i in range(n)]
            for topic, payload in sent:
                pub.publish(topic, payload)
            assert done.wait(10.0), f"got {len(got)} of {n}"
            assert got == sent
            for table in (broker._core._routes, sub._routes, pub._topic_heads):
                assert 0 < len(table) <= bus.MAX_CACHED_TOPICS
        finally:
            sub.close()
            pub.close()


@pytest.fixture(scope="module")
def session_wire():
    """A session on one end of a socket pair, and the other end."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(5.0)
    session = bus.Session(ours, "wire")
    yield session, theirs
    session.close()
    theirs.close()


class TestSessionPublishBytes:
    @given(
        topic=st.one_of(
            st.sampled_from(["t/x", "telemetry/dev0"]),
            st.from_regex(r"[A-Za-z0-9_-]{1,12}(/[A-Za-z0-9_-]{1,12}){0,3}", fullmatch=True),
        ),
        payload=st.binary(max_size=4096),
        wrap=st.sampled_from([bytes, bytearray, memoryview]),
    )
    @settings(max_examples=300)
    def test_publish_writes_the_encoded_frame(self, session_wire, topic, payload, wrap):
        session, peer = session_wire
        session.publish(topic, wrap(payload))
        expected = encode_frame(Frame(kind=FrameKind.PUBLISH, topic=topic, payload=payload))
        assert read_exact(peer, len(expected)) == expected

    def test_publish_checks_come_before_the_cache(self, session_wire):
        session, peer = session_wire
        for topic in ("a//b", "a/+", "", None, ["t"]):
            with pytest.raises(FrameError):
                session.publish(topic, b"x")
        session.publish("t/x", b"")
        assert read_frame(peer) == Frame(kind=FrameKind.PUBLISH, topic="t/x")
        with pytest.raises(FrameError, match="payload exceeds"):
            session.publish("t/x", b"x" * (bus.MAX_PAYLOAD + 1))


def subscribed_session(subscriptions):
    """A session on one end of a fresh socket pair, subscribed to ``(filter, handler)`` pairs, and the other end."""
    ours, theirs = socket.socketpair()
    theirs.settimeout(5.0)
    theirs.sendall(encode_frame(Frame(kind=FrameKind.SUBACK, code=0)) * len(subscriptions))  # ahead of the SUBSCRIBEs
    session = bus.Session(ours, "wire")
    for filter_, handler in subscriptions:
        session.subscribe(filter_, handler)
    return session, theirs


class TestSessionReceiveChecks:
    @pytest.mark.parametrize(
        "raw",
        [
            struct.pack(">BI", 9, 0),
            struct.pack(">BI", 5, bus.MAX_BODY + 1),
            struct.pack(">BI", 4, 2) + b"\x00\x00",
            struct.pack(">BI", 7, 1) + b"\x00",
            struct.pack(">BI", 5, 1) + b"\x00",
            struct.pack(">BI", 5, 4) + b"\x00\x05t/",
            struct.pack(">BI", 5, 6) + b"\x00\x03t/\xffp",
            struct.pack(">BI", 5, 8) + b"\x00\x05t/x yp",
        ],
        ids=[
            "unknown_kind",
            "oversized_body",
            "suback_with_two_byte_body",
            "pingresp_with_body",
            "truncated_topic_length",
            "topic_longer_than_body",
            "invalid_utf8_topic",
            "topic_with_a_space",
        ],
    )
    def test_malformed_frame_closes_the_session_and_runs_no_handler(self, raw):
        calls = []
        session, theirs = subscribed_session([("t/+", lambda t, p: calls.append((t, p)))])
        try:
            assert not session.closed
            # A well-formed PUBLISH after the bad frame must not be delivered either.
            theirs.sendall(raw + encode_frame(Frame(kind=FrameKind.PUBLISH, topic="t/x", payload=b"after")))
            assert wait_for(lambda: session.closed)
            assert calls == []
        finally:
            session.close()
            theirs.close()

    def test_malformed_frame_is_logged_and_an_own_close_is_not(self, caplog):
        with caplog.at_level("DEBUG", logger="edgetelem.bus"):
            session, theirs = subscribed_session([])
            theirs.sendall(struct.pack(">BI", 9, 0))
            session._reader.join(timeout=5.0)
            assert [r.getMessage() for r in caplog.records] == [
                "session wire: malformed frame from the broker: unknown frame kind 9"
            ]
            assert caplog.records[0].levelname == "WARNING"
            session.close()
            theirs.close()
            caplog.clear()
            session, theirs = subscribed_session([])
            session.close()
            session._reader.join(timeout=5.0)
            theirs.close()
            assert caplog.records == []


_SEGMENT = st.from_regex(r"[A-Za-z0-9_-]{1,4}", fullmatch=True)
_WIRE_FRAMES = st.one_of(
    st.builds(
        Frame,
        kind=st.just(FrameKind.CONNECT),
        client_id=st.text(st.characters(codec="utf-8", exclude_characters="/"), min_size=1, max_size=8),
    ),
    st.builds(Frame, kind=st.sampled_from([FrameKind.CONNACK, FrameKind.SUBACK]), code=st.integers(0, 255)),
    st.builds(
        Frame,
        kind=st.just(FrameKind.SUBSCRIBE),
        topic=st.lists(st.one_of(_SEGMENT, st.just("+")), min_size=1, max_size=3).map("/".join),
    ),
    st.builds(
        Frame,
        kind=st.just(FrameKind.PUBLISH),
        topic=st.lists(_SEGMENT, min_size=1, max_size=3).map("/".join),
        payload=st.binary(max_size=32).map(lambda b: b.replace(b"/", b"")),
    ),
    st.builds(Frame, kind=st.sampled_from([FrameKind.PINGREQ, FrameKind.PINGRESP, FrameKind.DISCONNECT])),
)


class TestOneFrameReader:
    # Generated topics and filters have at most 3 segments, client ids and
    # payloads hold no "/", and one flipped byte adds at most one segment, so
    # these filters match any topic a flip can produce (also one that a longer
    # topic length extends into the payload); the 5-segment sentinel matches
    # none of them.
    FILTERS = ("+", "+/+", "+/+/+", "+/+/+/+")
    SENTINEL = "end/of/the/test/frames"

    @given(frame=_WIRE_FRAMES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_readers_agree_on_a_frame_with_one_flipped_byte(self, frame, data):
        raw = bytearray(encode_frame(frame))
        at = data.draw(st.sampled_from([0, *range(5, len(raw))]), label="flipped byte")  # not the body length
        raw[at] ^= data.draw(st.integers(1, 255), label="xor")
        raw = bytes(raw)
        try:
            decoded = decode_frame(raw)
        except FrameError:
            decoded = None

        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.settimeout(5.0)
            ours.sendall(raw)
            ours.close()
            if decoded is None:
                with pytest.raises(FrameError):
                    read_frame(theirs)
            else:
                assert read_frame(theirs) == decoded

        calls, sentinel = [], threading.Event()
        subscriptions = [(f, lambda t, p: calls.append((t, p))) for f in self.FILTERS]
        session, theirs = subscribed_session([*subscriptions, (self.SENTINEL, lambda t, p: sentinel.set())])
        try:
            theirs.sendall(raw + encode_frame(Frame(kind=FrameKind.PUBLISH, topic=self.SENTINEL)))
            assert wait_for(lambda: session.closed or sentinel.is_set())
            assert session.closed == (decoded is None)
            if decoded is not None and decoded.kind == FrameKind.PUBLISH:
                assert calls == [(decoded.topic, decoded.payload)]
            else:
                assert calls == []
        finally:
            session.close()
            theirs.close()


def _can_connect(address, client_id) -> bool:
    try:
        s = connect(address, client_id)
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
        a = [spec.sampler(3)() for i in range(50)]
        b = [spec.sampler(3)() for i in range(50)]
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


class TestHttpServerWire:
    def test_request_sent_one_byte_per_send(self, ingest_server):
        server, bodies = ingest_server
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in http_post(b'{"a": 1}'):
                sock.send(bytes([byte]))
                time.sleep(0.0005)
            [(status, _, body)] = read_replies(sock, 1)
        assert (status, json.loads(body)) == (200, {"record_id": 0})
        assert bodies == [b'{"a": 1}']

    def test_two_posts_on_one_keep_alive_connection(self, ingest_server):
        server, bodies = ingest_server
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(http_post(b"first"))
            [first] = read_replies(sock, 1)
            sock.sendall(http_post(b"second"))
            [second] = read_replies(sock, 1)
        assert [json.loads(r[2]) for r in (first, second)] == [{"record_id": 0}, {"record_id": 1}]
        assert "Connection: close" not in first[1]
        assert bodies == [b"first", b"second"]

    def test_two_pipelined_posts_in_one_send(self, ingest_server):
        server, bodies = ingest_server
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(http_post(b"first") + http_post(b"second", headers="Connection: close\r\n"))
            replies = read_replies(sock, 2)
            assert sock.recv(1) == b""  # closed after the request that asked for it
        assert [(status, json.loads(body)) for status, _, body in replies] == [
            (200, {"record_id": 0}),
            (200, {"record_id": 1}),
        ]
        assert "Connection: close" in replies[1][1]
        assert bodies == [b"first", b"second"]

    def test_http10_request_closes_the_connection(self, ingest_server):
        server, bodies = ingest_server
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(b"POST /ingest HTTP/1.0\r\nContent-Length: 2\r\n\r\n{}")
            [(status, head, _)] = read_replies(sock, 1)
            assert sock.recv(1) == b""
        assert status == 200 and "Connection: close" in head
        assert bodies == [b"{}"]

    def test_expect_100_continue(self, ingest_server):
        server, bodies = ingest_server
        body = b"x" * 2048
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(http_post(body, headers="Expect: 100-continue\r\n")[: -len(body)])
            [(interim, _, _)] = read_replies(sock, 1)
            sock.sendall(body)
            [(status, _, _)] = read_replies(sock, 1)
        assert (interim, status) == (100, 200)
        assert bodies == [body]

    def test_expect_100_continue_only_after_the_length_check(self, ingest_server):
        server, bodies = ingest_server
        head = f"POST /ingest HTTP/1.1\r\nContent-Length: {bus.MAX_PAYLOAD + 1}\r\nExpect: 100-continue\r\n\r\n"
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(head.encode())
            [(status, reply_head, _)] = read_replies(sock, 1)
            assert sock.recv(1) == b""
        assert status == 413 and "Connection: close" in reply_head
        assert bodies == []

    def test_oversized_head_is_refused(self, ingest_server):
        server, bodies = ingest_server
        prefix = b"POST /ingest HTTP/1.1\r\nX-Pad: "
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(prefix + b"a" * (bus.MAX_HTTP_HEAD + 1 - len(prefix)))
            [(status, head, _)] = read_replies(sock, 1)
            assert sock.recv(1) == b""
        assert status == 431 and "Connection: close" in head
        assert bodies == []

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (b"GET /ingest HTTP/1.1\r\nHost: test\r\n\r\n", 501),
            (http_post(b"{}", path="/nope"), 404),
            (http_post(b"{}", path="/probe"), 404),
        ],
        ids=["get_ingest", "unknown_path", "probe_path"],
    )
    def test_method_and_path_statuses(self, ingest_server, request_bytes, status):
        server, bodies = ingest_server
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(request_bytes)
            [(got, _, _)] = read_replies(sock, 1)
        assert got == status
        assert bodies == []

    def test_concurrent_posts_get_unique_dense_ids(self, ingest_server):
        server, bodies = ingest_server
        acks, errors = [], []

        def client(k: int) -> None:
            try:
                for i in range(20):
                    acks.append(http_post_snapshot(server.address, f"{k}-{i}".encode())["record_id"])
            except Exception as e:
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sorted(acks) == list(range(160))
        assert sorted(bodies) == sorted(f"{k}-{i}".encode() for k in range(8) for i in range(20))

    def test_idle_connections_start_no_threads(self, ingest_server):
        server, _ = ingest_server
        before = threading.active_count()
        idle = [socket.create_connection(server.address, timeout=5.0) for _ in range(32)]
        try:
            # Accepted in order, so the 32 idle peers are in before this POST is answered.
            assert http_post_snapshot(server.address, b"{}") == {"record_id": 0}
            time.sleep(0.1)
            assert threading.active_count() == before
        finally:
            for sock in idle:
                sock.close()

    def test_stop_closes_open_connections(self):
        server = IngestHttpServer(lambda payload: {"record_id": 0}).start()
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(http_post(b"{}"))
            read_replies(sock, 1)  # the connection now idles between keep-alive requests
            start = time.monotonic()
            server.stop()
            assert time.monotonic() - start < 1.0
            assert sock.recv(1) == b""


def reply_once(listener, reply: bytes) -> threading.Thread:
    """A thread that reads one request head from ``listener``'s next client and sends ``reply``."""

    def serve():
        listener.settimeout(5.0)
        conn, _ = listener.accept()
        with conn:
            request = bytearray()
            while b"\r\n\r\n" not in request:
                request.extend(conn.recv(4096))
            conn.sendall(reply)

    thread = threading.Thread(target=serve)
    thread.start()
    return thread


def _ipv6_loopback() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


class TestHttpClientConnect:
    def test_host_name_is_resolved(self, ingest_server):
        server, bodies = ingest_server
        assert http_post_snapshot(("localhost", server.address[1]), b"{}") == {"record_id": 0}
        assert bodies == [b"{}"]

    def test_addresses_and_names_connect_without_nagle(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:  # the kernel completes the handshake unaccepted
            port = listener.getsockname()[1]
            for host in ("127.0.0.1", "localhost"):
                with bus._connect(host, port) as sock:
                    assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY), host
                    assert sock.gettimeout() == bus.CLIENT_TIMEOUT_S, host

    def test_refused_port_raises_and_closes_the_socket(self, monkeypatch):
        opened = []

        class Tracked(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        with socket.socket() as bound:  # bound but not listening: a connect is refused
            bound.bind(("127.0.0.1", 0))
            monkeypatch.setattr(socket, "socket", Tracked)
            with pytest.raises(ConnectionRefusedError):
                bus._http_request(bound.getsockname(), "GET", "/")
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_overlong_reply_content_length_is_a_connection_error(self):
        # int() refuses more than 4,300 digits with ValueError; the client must stop at its own bound first
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: " + b"9" * 4301 + b"\r\n\r\n"
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(5.0)

            def serve():
                conn, _ = listener.accept()
                with conn:
                    request = bytearray()
                    while b"\r\n\r\n" not in request:
                        request.extend(conn.recv(4096))
                    conn.sendall(reply)

            server = threading.Thread(target=serve)
            server.start()
            try:
                with pytest.raises(ConnectionError, match="no valid Content-Length"):
                    bus._http_request(listener.getsockname(), "GET", "/")
            finally:
                server.join(5.0)
        assert not server.is_alive()

    @pytest.mark.parametrize(
        "head",
        [b"Content-Length: 2\r\nContent-Length: 5", b"Content-Length: 5\r\nX-Model-Digest abc"],
        ids=["repeated_content_length", "header_line_without_colon"],
    )
    def test_reply_headers_are_read_as_request_headers_are(self, head):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = reply_once(listener, b"HTTP/1.1 200 OK\r\n" + head + b"\r\n\r\nhello")
            try:
                with pytest.raises(ConnectionError, match="malformed reply head"):
                    bus._http_request(listener.getsockname(), "GET", "/")
            finally:
                server.join(5.0)
        assert not server.is_alive()

    def test_a_mute_server_fails_the_request_after_the_client_timeout(self, monkeypatch):
        monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 0.3)
        with socket.create_server(("127.0.0.1", 0)) as mute:  # the kernel accepts; nothing ever answers
            start = time.monotonic()
            with pytest.raises(OSError):
                http_post_snapshot(mute.getsockname(), b"{}")
            assert time.monotonic() - start < 1.0

    @pytest.mark.skipif(not _ipv6_loopback(), reason="no IPv6 loopback")
    def test_ipv6_literal(self):
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        with socket.create_server(("::1", 0), family=socket.AF_INET6) as listener:
            listener.settimeout(5.0)

            def serve():
                conn, _ = listener.accept()
                with conn:
                    while b"\r\n\r\n" not in request:
                        request.extend(conn.recv(4096))
                    conn.sendall(reply)

            request = bytearray()

            server = threading.Thread(target=serve)
            server.start()
            try:
                port = listener.getsockname()[1]
                status, _, body = bus._http_request(("::1", port), "GET", "/")
            finally:
                server.join(5.0)
        assert not server.is_alive()
        assert (status, body) == (200, b"ok")
        assert f"\r\nHost: [::1]:{port}\r\n".encode() in request


@pytest.mark.skipif(not _ipv6_loopback(), reason="no IPv6 loopback")
def test_servers_listen_on_ipv6():
    broker, server = Broker("::1").start(), IngestHttpServer(lambda payload: {"record_id": 0}, "::1").start()
    inbox = queue.Queue()
    try:
        session = connect(broker.address, "v6")
        session.subscribe("t/+", lambda _t, p: inbox.put(p))
        session.publish("t/x", b"over v6")
        assert inbox.get(timeout=5.0) == b"over v6"
        session.close()
        assert http_post_snapshot(server.address, b"{}") == {"record_id": 0}
    finally:
        broker.stop()
        server.stop()


@pytest.fixture
def accepted(monkeypatch):
    """Every connection a bus server accepts from now on, in accept order."""
    peers = []

    class CountedPeer(bus._Peer):
        def __init__(self, now):
            super().__init__(now)
            peers.append(self)

    monkeypatch.setattr(bus, "_Peer", CountedPeer)
    return peers


def serve_replies(listener, replies: list) -> tuple:
    """A thread answering the requests on ``listener`` with ``replies`` in order, one connection at a time.

    Returns the thread, the ``(connection number, request body)`` of each
    request it read, and the connections it accepted.  A connection is served
    until the client closes it; a ``None`` reply closes it unanswered.  The
    thread closes its connection and ends once every reply is used.
    """
    seen, conns = [], []

    def serve():
        listener.settimeout(5.0)
        while len(seen) < len(replies):
            conn, _ = listener.accept()
            conns.append(conn)
            with conn:
                buf = b""
                while len(seen) < len(replies):
                    try:
                        while b"\r\n\r\n" not in buf and (chunk := conn.recv(4096)):
                            buf += chunk
                    except ConnectionError:  # a client closing with unread bytes resets
                        break
                    head, sep, buf = buf.partition(b"\r\n\r\n")
                    if not sep:
                        break
                    length = int(re.search(rb"\r\nContent-Length: (\d+)", head).group(1))
                    while len(buf) < length and (chunk := conn.recv(4096)):
                        buf += chunk
                    if len(buf) < length:
                        break
                    seen.append((len(conns) - 1, buf[:length]))
                    buf = buf[length:]
                    reply = replies[len(seen) - 1]
                    if reply is None:
                        break
                    conn.sendall(reply)

    thread = threading.Thread(target=serve)
    thread.start()
    return thread, seen, conns


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"


class TestHttpClientPool:
    def test_sequential_posts_share_one_connection(self, ingest_server, accepted):
        server, bodies = ingest_server
        acks = [http_post_snapshot(server.address, f"{i}".encode())["record_id"] for i in range(20)]
        assert acks == list(range(20))
        assert len(accepted) == 1
        assert bodies == [f"{i}".encode() for i in range(20)]

    def test_a_connection_the_server_closed_is_replaced(self, monkeypatch, ingest_server, accepted):
        monkeypatch.setattr(bus, "PEER_TIMEOUT_S", 0.2)
        server, bodies = ingest_server
        assert http_post_snapshot(server.address, b"first") == {"record_id": 0}
        assert wait_for(lambda: accepted[0] not in server._socks)  # the server closed the idle connection
        assert http_post_snapshot(server.address, b"second") == {"record_id": 1}
        assert len(accepted) == 2
        assert bodies == [b"first", b"second"]

    def test_an_idle_connection_holding_unsolicited_bytes_is_replaced(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            server, seen, conns = serve_replies(listener, [OK_REPLY, OK_REPLY])
            try:
                address = listener.getsockname()
                assert bus._http_request(address, "POST", "/", b"first")[2] == b"ok"
                conns[0].sendall(OK_REPLY)  # on loopback it is queued at the client once sendall returns
                assert bus._http_request(address, "POST", "/", b"second")[2] == b"ok"
            finally:
                server.join(5.0)
        assert not server.is_alive()
        assert seen == [(0, b"first"), (1, b"second")]

    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
            b"HTTP/1.1 200 OK\r\nContent-Length 2\r\n\r\nok",
            OK_REPLY + b"!",
        ],
        ids=["connection_close", "http10", "malformed_head", "bytes_after_body"],
    )
    def test_a_connection_is_pooled_only_after_a_clean_http11_reply(self, reply):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            server, seen, _ = serve_replies(listener, [reply, OK_REPLY])
            try:
                address = listener.getsockname()
                with contextlib.suppress(ConnectionError):  # the malformed head
                    bus._http_request(address, "POST", "/", b"first")
                assert bus._http_request(address, "POST", "/", b"second") == (200, {"content-length": "2"}, b"ok")
            finally:
                server.join(5.0)
        assert not server.is_alive()
        assert seen == [(0, b"first"), (1, b"second")]  # the second request came on a new connection

    @pytest.mark.parametrize("idle_s, connections", [(0.9, 1), (1.0, 2)], ids=["within", "at_the_bound"])
    def test_a_connection_idle_for_the_client_timeout_is_not_reused(
        self, monkeypatch, ingest_server, accepted, idle_s, connections
    ):
        server, bodies = ingest_server
        assert http_post_snapshot(server.address, b"first") == {"record_id": 0}
        later = time.monotonic() + idle_s * bus.CLIENT_TIMEOUT_S
        monkeypatch.setattr(time, "monotonic", lambda: later)
        assert http_post_snapshot(server.address, b"second") == {"record_id": 1}
        assert len(accepted) == connections
        assert bodies == [b"first", b"second"]

    @pytest.mark.parametrize("reused", [False, True], ids=["new_connection", "reused_connection"])
    def test_a_request_the_server_drops_unanswered_is_not_resent(self, reused):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            server, seen, _ = serve_replies(listener, [OK_REPLY, None] if reused else [None])
            try:
                address = listener.getsockname()
                if reused:
                    assert bus._http_request(address, "POST", "/", b"first")[2] == b"ok"
                with pytest.raises(OSError):
                    bus._http_request(address, "POST", "/", b"dropped")
            finally:
                server.join(5.0)
            assert not server.is_alive()
            listener.setblocking(False)
            with pytest.raises(BlockingIOError):  # no connection came for a resend
                listener.accept()
        assert seen == [(0, b"first")] * reused + [(0, b"dropped")]

    def test_model_fetches_from_one_store_share_one_connection(self, tmp_path, accepted):
        blobs = {"a": make_model_blob("a", 4096), "b": make_model_blob("b", 8192)}
        server = ModelStoreHttpServer(ModelStore.create(tmp_path / "models", blobs)).start()
        try:
            assert [fetch_model(server.address, model_id)[0] for model_id in ("a", "b")] == [blobs["a"], blobs["b"]]
        finally:
            server.stop()
        assert len(accepted) == 1


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

    def test_pubsub_timeout_yields_partial_report(self, broker, monkeypatch):
        # no responder: every probe times out, per-index status preserved
        monkeypatch.setattr(bus, "CLIENT_TIMEOUT_S", 0.2)
        report = pubsub_latency_probe(broker.address, n=3, payload_bytes=16, probe_id="t3")
        assert report.stats is None
        assert report.statuses == ["timeout"] * 3

    def test_http_loopback(self):
        server = ProbeHttpServer().start()
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
