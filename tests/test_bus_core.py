"""The servers' protocol cores, driven without sockets, threads or sleeps.

:class:`FakeLoop` does what ``bus._LoopServer`` does with a core, with a fake
socket per peer and a clock the test moves: it feeds each peer's bytes to the
core with ``now``, sends what the core leaves in ``out`` as far as the peer's
reader takes it, closes the peers the core marks ``closing`` once ``out`` is
empty, and on :meth:`FakeLoop.tick` evicts the peers the core calls expired.

:class:`BrokerMachine` drives the broker core with many such peers and checks
the broker's promises after every step.
"""

import struct
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from edgetelem import bus
from edgetelem.bus import Frame, FrameKind, encode_frame, topic_matches

T = bus.PEER_TIMEOUT_S
E = 0.25  # a step of the clock that sums exactly


class FakeLoop:
    """A socket-free ``_LoopServer``: a peer's socket takes ``window[peer]`` more bytes, any number when None."""

    def __init__(self, core):
        self.core, self.now = core, 0.0
        self.open = []  # peers, in connect order
        self.window, self.received, self.taken_at = {}, {}, {}
        self.evicted = []

    def connect(self, window=None) -> bus._Peer:
        peer = bus._Peer(self.now)
        self.open.append(peer)
        self.window[peer], self.received[peer] = window, bytearray()
        return peer

    def send(self, peer, data: bytes) -> None:
        """The bytes ``peer`` sent arrive at the server."""
        if peer.out and not self.core.reads_while_sending:
            raise AssertionError("the loop reads no peer whose reply is pending")
        for target in self.core.received(peer, self.now, data):
            self.flush(target)

    def read(self, peer, window=None) -> None:
        """``peer``'s socket takes ``window`` more bytes (any number when None), and what is queued goes."""
        self.window[peer] = window
        self.flush(peer)

    def flush(self, peer) -> None:
        while peer.out and self.window[peer] != 0:
            n = len(peer.out) if self.window[peer] is None else min(len(peer.out), self.window[peer])
            if self.window[peer] is not None:
                self.window[peer] -= n
            self.received[peer] += peer.out[:n]
            self.taken_at[peer] = self.now
            self.core.sent(peer, self.now, n)
        if peer.closing and not peer.out:
            self.close(peer)

    def close(self, peer) -> None:
        """The connection ends: the server closes it, or the client hangs up."""
        self.open.remove(peer)
        self.core.closed(peer)

    def tick(self, seconds: float) -> list:
        """Move the clock and evict the expired peers; returns them."""
        self.now += seconds
        expired = self.core.expired(list(self.open), self.now)
        for peer in expired:
            self.close(peer)
        self.evicted += expired
        return expired

    def frames(self, peer) -> list:
        """Every whole frame ``peer`` has received, decoded."""
        buf, start, frames = self.received[peer], 0, []
        while len(buf) - start >= 5 and len(buf) >= (end := bus._frame_end(buf, start)[1]):
            frames.append(bus.decode_frame(bytes(buf[start:end])))
            start = end
        return frames


def frame(kind, **fields) -> bytes:
    return encode_frame(Frame(kind=kind, **fields))


def session(loop, client_id: str, *filters) -> bus._Peer:
    """A peer that connected as ``client_id`` and subscribed to ``filters``, each acknowledged."""
    peer = loop.connect()
    loop.send(peer, frame(FrameKind.CONNECT, client_id=client_id))
    for filter_ in filters:
        loop.send(peer, frame(FrameKind.SUBSCRIBE, topic=filter_))
    acks = [Frame(kind=FrameKind.CONNACK)] + [Frame(kind=FrameKind.SUBACK)] * len(filters)
    assert loop.frames(peer) == acks
    loop.received[peer].clear()
    return peer


def http_post(body: bytes) -> bytes:
    return f"POST /ingest HTTP/1.1\r\nHost: test\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


class TestBrokerDeadlines:
    def test_stalled_subscriber_is_evicted(self):
        loop = FakeLoop(bus._BrokerCore())
        stalled, pub = session(loop, "stalled", "t/+"), session(loop, "pub")
        loop.read(stalled, window=0)  # and never read again
        message = frame(FrameKind.PUBLISH, topic="t/x", payload=b"x" * 1024)
        while not loop.core.dropped:
            loop.send(pub, message)
        assert len(stalled.out) <= bus.MAX_PEER_QUEUE
        assert loop.tick(T - E) == []
        assert loop.tick(E) == [stalled]  # the publisher, which owes nothing, stays
        again = loop.connect()
        loop.send(again, frame(FrameKind.CONNECT, client_id="stalled"))
        assert loop.frames(again) == [Frame(kind=FrameKind.CONNACK, code=0)]

    def test_half_frame_after_connack_is_evicted(self):
        loop = FakeLoop(bus._BrokerCore())
        half = session(loop, "half")
        loop.tick(2 * T)  # idle and connected: owes nothing
        loop.send(half, frame(FrameKind.PUBLISH, topic="t/x", payload=b"abc")[:7])
        assert loop.tick(T - E) == []
        assert loop.tick(E) == [half]

    def test_idle_subscriber_outlives_the_deadline(self):
        loop = FakeLoop(bus._BrokerCore())
        idle = session(loop, "idle", "t/+")
        assert loop.tick(1.5 * T) == []
        raw = frame(FrameKind.PUBLISH, topic="t/x", payload=b"late")
        loop.send(idle, raw[:7])
        assert loop.tick(0.6 * T) == []  # a frame begun after the idle spell gets a deadline of its own
        loop.send(idle, raw[7:])
        assert loop.received[idle] == raw

    def test_publisher_whose_reads_end_mid_frame_is_not_evicted(self):
        loop = FakeLoop(bus._BrokerCore())
        sub, streamer = session(loop, "sub", "t/+"), session(loop, "streamer")
        frames = [frame(FrameKind.PUBLISH, topic="t/x", payload=bytes([i]) * 8) for i in range(6)]
        stream, n = b"".join(frames), len(frames[0])
        cuts = [0, *range(n + n // 2, len(stream), n), len(stream)]
        for lo, hi in zip(cuts, cuts[1:]):  # every send but the last ends halfway through a frame
            loop.send(streamer, stream[lo:hi])
            assert loop.tick(0.6 * T) == []
        assert loop.received[sub] == stream

    def test_a_refused_connect_is_closed_once_its_connack_is_sent(self):
        loop = FakeLoop(bus._BrokerCore())
        session(loop, "dup")
        second = loop.connect(window=0)
        loop.send(second, frame(FrameKind.CONNECT, client_id="dup"))
        assert second in loop.open and second.closing
        loop.read(second)
        assert loop.frames(second) == [Frame(kind=FrameKind.CONNACK, code=2)]
        assert second not in loop.open and loop.evicted == []


class TestHttpDeadlines:
    def test_stalled_body_blocks_no_one_and_is_evicted(self):
        loop = FakeLoop(bus._HttpCore({"POST": lambda path, body: bus._json_reply(200, {"record_id": 0})}))
        stalled, other = loop.connect(), loop.connect()
        loop.send(stalled, b"POST /ingest HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n" + b"x" * 10)
        loop.tick(T / 2)
        loop.send(other, http_post(b"{}"))
        assert bytes(loop.received[other]).startswith(b"HTTP/1.1 200 OK\r\n")
        assert loop.tick(T / 2 - E) == []
        assert loop.tick(E) == [stalled]  # ``other`` idles since its reply, T / 2 ago
        assert loop.tick(T / 2) == [other]  # an idle keep-alive peer owes its next request

    def test_a_pipelined_request_waits_for_the_reply_before_it(self):
        bodies = []
        loop = FakeLoop(bus._HttpCore({"POST": lambda path, body: bodies.append(body) or bus._json_reply(200, {})}))
        peer = loop.connect(window=0)
        loop.send(peer, http_post(b"first") + http_post(b"second"))
        assert bodies == [b"first"] and peer.inbuf == http_post(b"second")
        loop.read(peer)
        assert bodies == [b"first", b"second"] and not peer.inbuf and not peer.out
        assert loop.received[peer].count(b"HTTP/1.1 200 OK\r\n") == 2


FILTERS = ("t/+", "t/a", "+/a", "+/+", "u/+", "u/b", "t/b", "+/b")  # overlapping, twice the bound below
TOPICS = tuple(f"{a}/{b}" for a in "tuv" for b in "abcd")  # more than the route table holds below
CLIENT_IDS = ("c0", "c1", "c2")
MAX_CLIENTS = 5
SENDS = st.integers(0, 64) | st.just(1 << 20)  # how many queued bytes a rule sends
BOUNDS = {"MAX_PEER_QUEUE": 64, "MAX_PEER_FILTERS": 4, "MAX_CACHED_TOPICS": 8}


class Client:
    """One connection's model: what it sent, what the broker must have made of it, and what it received."""

    def __init__(self, serial: int, client_id: str, now: float):
        self.serial, self.client_id = serial, client_id
        self.pending = bytearray()  # queued, not yet sent
        self.frames = []  # (end offset in the stream, kind, field) of each queued frame
        self.sent = 0  # bytes of the stream sent
        self.whole = 0  # frames sent whole
        self.connected = False  # its CONNECT was accepted
        self.refused = False  # its CONNECT was a duplicate
        self.filters = set()  # accepted by the broker
        self.seq = 0  # of its next publish
        self.progress = now  # its last connect, frame begun or consumed
        self.got = {}  # publisher serial -> the seqs received from it, in order
        self.parsed = 0  # frames of its received bytes checked

    def partial(self) -> int:
        """Bytes sent of a frame not yet whole."""
        return self.sent - (self.frames[self.whole - 1][0] if self.whole else 0)

    def queue(self, kind, **fields) -> None:
        self.pending += frame(kind, **fields)
        self.frames.append((self.sent + len(self.pending), kind, fields))


class BrokerMachine(RuleBasedStateMachine):
    """Fake peers connect, subscribe, publish, stall, hang up and wait, against one ``_BrokerCore``.

    A rule acts on the ``i``-th open client, counted modulo their number.
    """

    def __init__(self):
        super().__init__()
        self.bounds = mock.patch.multiple(bus, **BOUNDS)
        self.bounds.start()
        self.loop = FakeLoop(bus._BrokerCore())
        self.clients = {}  # bus._Peer -> Client, for each open connection
        self.published = {}  # (serial, seq) -> topic
        self.serials = 0

    def teardown(self):
        self.bounds.stop()

    def _pick(self, i: int):
        return list(self.clients)[i % len(self.clients)]

    def _owes(self, peer) -> bool:
        client = self.clients[peer]
        return not client.connected or client.partial() > 0 or bool(peer.out)

    def _last_progress(self, peer) -> float:
        return max(self.clients[peer].progress, self.loop.taken_at.get(peer, -T))

    def _forget_closed(self) -> None:
        for peer in [p for p in self.clients if p not in self.loop.open]:
            del self.clients[peer]

    @precondition(lambda self: len(self.clients) < MAX_CLIENTS)
    @rule(client_id=st.sampled_from(CLIENT_IDS), filter_=st.sampled_from(FILTERS), n=SENDS)
    def connect(self, client_id, filter_, n):
        """A client connects and subscribes at once, before its CONNACK."""
        self.serials += 1
        client = self.clients[self.loop.connect()] = Client(self.serials, client_id, self.loop.now)
        client.queue(FrameKind.CONNECT, client_id=client_id)
        client.queue(FrameKind.SUBSCRIBE, topic=filter_)
        self.send(len(self.clients) - 1, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), filter_=st.sampled_from(FILTERS), n=SENDS)
    def subscribe(self, i, filter_, n):
        self.clients[self._pick(i)].queue(FrameKind.SUBSCRIBE, topic=filter_)
        self.send(i, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), n=SENDS)
    def subscribe_to_every_filter(self, i, n):
        for filter_ in FILTERS:
            self.subscribe(i, filter_, 0)
        self.send(i, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), topic=st.sampled_from(TOPICS), pad=st.integers(0, 24), n=SENDS)
    def publish(self, i, topic, pad, n):
        client = self.clients[self._pick(i)]
        self.published[client.serial, client.seq] = topic
        client.queue(FrameKind.PUBLISH, topic=topic, payload=struct.pack(">HH", client.serial, client.seq) + bytes(pad))
        client.seq += 1
        self.send(i, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), n=SENDS)
    def publish_to_every_topic(self, i, n):
        for topic in TOPICS:
            self.publish(i, topic, 0, 0)
        self.send(i, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), n=SENDS)
    def disconnect(self, i, n):
        self.clients[self._pick(i)].queue(FrameKind.DISCONNECT)
        self.send(i, n)

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), n=SENDS)
    def send(self, i, n):
        """Send the next ``n`` queued bytes: frames split at any byte."""
        peer = self._pick(i)
        client = self.clients[peer]
        if client.refused or not client.pending or not n:  # a refused client's bytes stay unread
            return
        chunk = bytes(client.pending[:n])
        del client.pending[: len(chunk)]
        begun, consumed = client.partial() == 0, False
        client.sent += len(chunk)
        while client.whole < len(client.frames) and client.frames[client.whole][0] <= client.sent and not client.refused:
            _, kind, fields = client.frames[client.whole]
            client.whole += 1
            consumed = True
            if kind == FrameKind.CONNECT:
                client.refused = any(c.connected and c.client_id == client.client_id for c in self.clients.values())
                client.connected = not client.refused
            elif kind == FrameKind.SUBSCRIBE and (
                fields["topic"] in client.filters or len(client.filters) < BOUNDS["MAX_PEER_FILTERS"]
            ):
                client.filters.add(fields["topic"])
        if begun or consumed:
            client.progress = self.loop.now
        self.loop.send(peer, chunk)
        self._forget_closed()

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS), window=st.sampled_from([0, 0, 7, 64, None]))
    def read(self, i, window):
        """The client's socket takes ``window`` more bytes, any number when None: a stalled or slow reader."""
        self.loop.read(self._pick(i), window)
        self._forget_closed()

    @precondition(lambda self: self.clients)
    @rule(i=st.integers(0, MAX_CLIENTS))
    def hang_up(self, i):
        self.loop.close(self._pick(i))
        self._forget_closed()

    @precondition(lambda self: self.clients)
    @rule(seconds=st.sampled_from([E, T / 2, T - E, T, 2.5 * T]))
    def wait(self, seconds):
        owed = {peer: self._owes(peer) for peer in self.clients}
        expired = self.loop.tick(seconds)
        for peer, owes in owed.items():
            due = owes and self._last_progress(peer) + T <= self.loop.now
            assert (peer in expired) == due, (owes, self._last_progress(peer), self.loop.now)
        self._forget_closed()

    @invariant()
    def each_queue_is_bounded(self):
        assert max((len(peer.out) for peer in self.loop.open), default=0) <= bus.MAX_PEER_QUEUE

    @invariant()
    def each_peers_filters_are_bounded(self):
        assert max(map(len, self.loop.core._subs.values()), default=0) <= bus.MAX_PEER_FILTERS

    @invariant()
    def the_route_table_is_bounded(self):
        assert len(self.loop.core._routes) <= bus.MAX_CACHED_TOPICS

    @invariant()
    def each_session_gets_one_copy_per_publish_in_publisher_order(self):
        for peer, client in self.clients.items():
            frames = self.loop.frames(peer)
            if frames and client.parsed == 0:
                assert frames[0] == Frame(kind=FrameKind.CONNACK, code=2 if client.refused else 0)
            for received in frames[max(client.parsed, 1) :]:
                if received.kind != FrameKind.PUBLISH:
                    continue
                serial, seq = struct.unpack_from(">HH", received.payload)
                assert self.published[serial, seq] == received.topic
                assert any(topic_matches(f, received.topic) for f in client.filters)
                seqs = client.got.setdefault(serial, [])
                assert not seqs or seqs[-1] < seq, f"publisher {serial}: {seq} after {seqs[-1]}"
                seqs.append(seq)
            client.parsed = len(frames)


TestBrokerMachine = BrokerMachine.TestCase
TestBrokerMachine.settings = settings(max_examples=60, stateful_step_count=40, derandomize=True, deadline=None)
