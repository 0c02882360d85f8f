"""Minimal topic-based pub/sub bus, HTTP ingest path, and latency probing.

Wire format, one frame per message::

    [kind: u8] [body_len: u32 BE] [body]

    CONNECT    body = u16 id_len, client_id utf-8
    CONNACK    body = u8 code            (0 = accepted, 2 = duplicate client id)
    SUBSCRIBE  body = u16 len, filter utf-8
    SUBACK     body = u8 code
    PUBLISH    body = u16 len, topic utf-8, payload (rest of body)
    PINGREQ / PINGRESP / DISCONNECT      empty body

Delivery is at-most-once: a publish with no matching subscriber is dropped,
and so is one that would take a subscriber's queue above ``MAX_PEER_QUEUE``
(counted in ``Broker.dropped``).  A session gets one copy of a publish however
many of its filters match, and runs each matching subscription's handler once.
Per publisher, messages arrive in publish order.

Every server is a protocol on :class:`_LoopServer`, one ``selectors`` loop on
one thread: :class:`Broker` speaks the frames above, and :class:`HttpServer`
serves the HTTP endpoints (snapshot ingest, the model store, the latency
probe) as route functions.  :func:`connect` opens a client :class:`Session`;
:func:`_http_request` is the one HTTP client: it reuses an idle keep-alive
connection to the same address, used in the last ``CLIENT_TIMEOUT_S``, and
otherwise opens one.  Both open TCP through :func:`_connect`;
``CLIENT_TIMEOUT_S`` bounds their waits.

Every frame reader (the broker's loop, a session's, which reads the CONNACK
too, and :func:`decode_frame`) reads a header through :func:`_frame_end` and a
length-prefixed string through :func:`_u16_bytes`.  PUBLISH, the frame every
message travels in, is read in place in the broker's and a session's receive
buffer and its topic looked up in a table of the peers or handlers it goes
to; every other frame is parsed into a validated :class:`Frame`.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import logging
import math
import queue
import random
import re
import selectors
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from http import HTTPStatus

log = logging.getLogger(__name__)

MAX_PAYLOAD = 1 << 20        # 1 MiB
MAX_TOPIC_BYTES = 256
MAX_CLIENT_ID_BYTES = 256
MAX_BODY = MAX_PAYLOAD + MAX_TOPIC_BYTES + 2
MAX_HTTP_HEAD = 1 << 16      # request or reply head, status/request line included
MAX_PEER_QUEUE = 8 * MAX_BODY  # bytes the broker queues to one peer; a frame beyond is dropped
MAX_PEER_FILTERS = 256       # distinct filters one peer may hold; a SUBSCRIBE to one more gets SUBACK 1
PEER_TIMEOUT_S = 10.0        # a server peer that owes bytes and makes no progress this long is closed
MAX_CACHED_TOPICS = 1024     # per-topic route and handler tables are cleared when they reach this size
SERVE_POLL_S = 0.05          # server loop's poll interval: bounds stop() and peer eviction
CLIENT_TIMEOUT_S = 5.0       # a client's connect, acknowledgement, HTTP socket operation, probe round trip or HTTP idle
_RECV_BYTES = 1 << 16

TOPIC_RE = re.compile(r"[A-Za-z0-9_/+-]+")


class FrameKind(IntEnum):
    CONNECT = 1
    CONNACK = 2
    SUBSCRIBE = 3
    SUBACK = 4
    PUBLISH = 5
    PINGREQ = 6
    PINGRESP = 7
    DISCONNECT = 8


class FrameError(ValueError):
    """Malformed frame bytes or invalid frame fields."""


class BusError(Exception):
    """Base class for client-session failures."""


class ConnectTimeout(BusError):
    pass


class ConnectRefused(BusError):
    pass


class DuplicateClientId(BusError):
    pass


class SessionClosed(BusError):
    pass


def validate_topic(topic: str, *, what: str = "topic") -> None:
    """Charset and shape check shared by topics and subscription filters."""
    if not isinstance(topic, str) or not topic:
        raise FrameError(f"{what} must be a non-empty string")
    if len(topic.encode("utf-8")) > MAX_TOPIC_BYTES:
        raise FrameError(f"{what} exceeds {MAX_TOPIC_BYTES} bytes")
    if not TOPIC_RE.fullmatch(topic):
        raise FrameError(f"{what} {topic!r} contains invalid characters")
    if any(seg == "" for seg in topic.split("/")):
        raise FrameError(f"{what} {topic!r} has an empty segment")


def topic_matches(filter_: str, topic: str) -> bool:
    """Exact match with `+` matching exactly one topic segment."""
    fsegs = filter_.split("/")
    tsegs = topic.split("/")
    if len(fsegs) != len(tsegs):
        return False
    return all(f == "+" or f == t for f, t in zip(fsegs, tsegs))


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    topic: str = ""
    payload: bytes = b""
    client_id: str = ""
    code: int = 0

    def __post_init__(self):
        if self.kind in (FrameKind.PUBLISH, FrameKind.SUBSCRIBE):
            validate_topic(self.topic)
        if self.kind == FrameKind.PUBLISH and len(self.payload) > MAX_PAYLOAD:
            raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
        if self.kind == FrameKind.CONNECT:
            if not self.client_id:
                raise FrameError("CONNECT requires a client_id")
            if len(self.client_id.encode("utf-8")) > MAX_CLIENT_ID_BYTES:
                raise FrameError(f"client_id exceeds {MAX_CLIENT_ID_BYTES} bytes")
        if not 0 <= self.code <= 255:
            raise FrameError("code must fit in one byte")


_HEADER = struct.Struct(">BI")  # kind, body length
_STR_LEN = struct.Struct(">H")  # the length before a client id, filter or topic
_KINDS = {int(kind): kind for kind in FrameKind}  # a header's kind byte -> its FrameKind
_PUBLISH = FrameKind.PUBLISH


def _u16_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _STR_LEN.pack(len(raw)) + raw


def encode_frame(f: Frame) -> bytes:
    if f.kind == FrameKind.CONNECT:
        body = _u16_str(f.client_id)
    elif f.kind in (FrameKind.CONNACK, FrameKind.SUBACK):
        body = bytes([f.code])
    elif f.kind == FrameKind.SUBSCRIBE:
        body = _u16_str(f.topic)
    elif f.kind == FrameKind.PUBLISH:
        body = _u16_str(f.topic) + f.payload
    else:
        body = b""
    return _HEADER.pack(f.kind, len(body)) + body


def _frame_end(buf, start: int) -> tuple:
    """``(kind, end)`` of the frame whose 5-byte header is at ``buf[start]``; it is whole once ``len(buf) >= end``.

    Raises :class:`FrameError` for an unknown kind and a body above ``MAX_BODY``.
    """
    byte, body_len = _HEADER.unpack_from(buf, start)
    kind = _KINDS.get(byte)
    if kind is None:
        raise FrameError(f"unknown frame kind {byte}")
    if body_len > MAX_BODY:
        raise FrameError(f"body length {body_len} exceeds limit")
    return kind, start + 5 + body_len


def _u16_bytes(buf, body: int, end: int, what: str) -> tuple:
    """``(raw, rest)``: the length-prefixed string at ``buf[body]`` of a body ending at ``end``, and the offset after it.

    ``raw`` is bytes; a PUBLISH topic's UTF-8 and shape are checked by
    :func:`_topic_text`.  Raises :class:`FrameError` for a truncated length
    or string and for more than ``MAX_PAYLOAD`` bytes after the string.
    """
    if end - body < 2:
        raise FrameError(f"truncated {what} length")
    rest = body + 2 + _STR_LEN.unpack_from(buf, body)[0]
    if rest > end:
        raise FrameError(f"truncated {what}")
    if end - rest > MAX_PAYLOAD:
        raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
    return bytes(buf[body + 2 : rest]), rest


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FrameError(f"{what} is not valid UTF-8") from None


def _topic_text(topic: bytes) -> str:
    """The topic of a received PUBLISH, checked as :class:`Frame` checks it."""
    text = _utf8(topic, "topic")
    validate_topic(text)
    return text


def _parse_body(kind: FrameKind, buf, body: int, end: int) -> Frame:
    """The validated :class:`Frame` of kind ``kind`` whose body is ``buf[body:end]``."""
    if kind == FrameKind.CONNECT:
        raw, rest = _u16_bytes(buf, body, end, "client_id")
        client_id = _utf8(raw, "client_id")
        if rest != end:
            raise FrameError("trailing bytes after client_id")
        return Frame(kind=kind, client_id=client_id)
    if kind in (FrameKind.CONNACK, FrameKind.SUBACK):
        if end - body != 1:
            raise FrameError("ack body must be exactly one byte")
        return Frame(kind=kind, code=buf[body])
    if kind == FrameKind.SUBSCRIBE:
        raw, rest = _u16_bytes(buf, body, end, "filter")
        filter_ = _utf8(raw, "filter")
        if rest != end:
            raise FrameError("trailing bytes after filter")
        return Frame(kind=kind, topic=filter_)
    if kind == FrameKind.PUBLISH:
        topic, payload = _u16_bytes(buf, body, end, "topic")
        return Frame(kind=kind, topic=_utf8(topic, "topic"), payload=bytes(buf[payload:end]))
    if end != body:
        raise FrameError(f"{kind.name} carries no body")
    return Frame(kind=kind)


def _remember(table: dict, key, value):
    """Store ``value`` in a per-topic table, emptying the table first when it holds ``MAX_CACHED_TOPICS``."""
    if len(table) >= MAX_CACHED_TOPICS:
        table.clear()
    table[key] = value
    return value


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one frame; inverse of :func:`encode_frame`."""
    if len(data) < 5:
        raise FrameError("truncated header")
    kind, end = _frame_end(data, 0)
    if len(data) != end:
        raise FrameError("frame length mismatch")
    return _parse_body(kind, data, 5, end)


class _Peer:
    """One connection of a :class:`_LoopServer`; ``request`` and ``client_id`` belong to its protocol."""

    __slots__ = ("sock", "inbuf", "out", "deadline", "closing", "writing", "request", "client_id")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.out = bytearray()
        self.deadline = time.monotonic() + PEER_TIMEOUT_S
        self.closing = False  # close once ``out`` has drained
        self.writing = False  # registered for EVENT_WRITE while ``out`` holds bytes
        self.request = None  # HTTP: the parsed head while its body is read
        self.client_id = ""  # broker: set by the peer's CONNECT


class _LoopServer:
    """One ``selectors`` loop on one thread accepts, reads and writes for every peer.

    A protocol defines ``_advance(peer)``, called when ``inbuf`` gains bytes
    or ``out`` drains, and ``_owes(peer)``: whether the peer still owes bytes.
    A peer gets ``PEER_TIMEOUT_S`` from its connect, from the first byte of a
    request or frame, and from each byte it takes of ``out``; one that owes
    bytes past that is closed.  The loop polls every ``SERVE_POLL_S``, which
    bounds eviction and how long :meth:`stop` waits.
    """

    _WRITE_EVENTS = selectors.EVENT_READ | selectors.EVENT_WRITE  # while ``out`` holds bytes

    def __init__(self, host: str, port: int, name: str):
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._peers: set = set()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)

    def start(self):
        self._thread.start()
        return self

    @property
    def address(self) -> tuple:
        return self._listener.getsockname()[:2]

    def stop(self) -> None:
        """Close the listener and every connection, after the loop's current poll."""
        self._stopping.set()
        if self._thread.ident is not None:
            self._thread.join()
        for peer in list(self._peers):
            self._close(peer)
        self._selector.close()
        self._listener.close()

    def _serve(self) -> None:
        next_sweep = time.monotonic() + SERVE_POLL_S
        while not self._stopping.is_set():
            for key, mask in self._selector.select(SERVE_POLL_S):
                if key.data is None:
                    self._accept()
                else:
                    self._step(key.data, mask)
            now = time.monotonic()
            if now >= next_sweep:
                next_sweep = now + SERVE_POLL_S
                for peer in [p for p in self._peers if p.deadline <= now and self._owes(p)]:
                    log.debug("%s peer evicted: no progress in %.1f s", self._thread.name, PEER_TIMEOUT_S)
                    self._close(peer)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as e:  # e.g. out of file descriptors; the backlog keeps the peer
                log.warning("%s accept failed: %s", self._thread.name, e)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = _Peer(sock)
            self._peers.add(peer)
            self._selector.register(sock, selectors.EVENT_READ, peer)
            self._step(peer, selectors.EVENT_READ)  # a client's first bytes usually follow its connect at once

    def _step(self, peer: _Peer, mask: int) -> None:
        if peer not in self._peers:  # closed while serving an earlier event of this poll
            return
        try:
            if mask & selectors.EVENT_WRITE:
                self._flush(peer)
            if mask & selectors.EVENT_READ and peer in self._peers:
                self._read(peer)
        except Exception:  # the loop serves every other peer; drop only this one
            log.exception("%s connection failed", self._thread.name)
            if peer in self._peers:
                self._close(peer)

    def _close(self, peer: _Peer) -> None:
        self._peers.discard(peer)
        self._selector.unregister(peer.sock)
        peer.sock.close()

    def _read(self, peer: _Peer) -> None:
        try:
            data = peer.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(peer)
            return
        if not peer.inbuf:  # a request or frame starts: it has PEER_TIMEOUT_S to arrive whole
            peer.deadline = time.monotonic() + PEER_TIMEOUT_S
        peer.inbuf += data
        self._advance(peer)

    def _flush(self, peer: _Peer) -> None:
        """Send what the socket takes now; wait for EVENT_WRITE while bytes are pending."""
        try:
            sent = peer.sock.send(peer.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(peer)
            return
        if sent:
            del peer.out[:sent]
            peer.deadline = time.monotonic() + PEER_TIMEOUT_S
        if peer.out:
            if not peer.writing:
                peer.writing = True
                self._selector.modify(peer.sock, self._WRITE_EVENTS, peer)
        elif peer.closing:
            self._close(peer)
        elif peer.writing:
            peer.writing = False
            self._selector.modify(peer.sock, selectors.EVENT_READ, peer)
            self._advance(peer)


class Broker(_LoopServer):
    """Pub/sub broker: a frame protocol on a :class:`_LoopServer` loop.

    A peer's first frame must be CONNECT; a duplicate client id gets CONNACK 2
    and a close.  A peer holds each filter once, at most ``MAX_PEER_FILTERS``
    of them; a SUBSCRIBE to one more gets SUBACK 1.  A PUBLISH is forwarded as
    received, once to each peer with a matching subscription however many of
    its filters match; a topic with ``+`` is dropped.  A connected peer's
    PUBLISH frames are parsed in place and routed through a table from topic
    bytes to peers, filled the first time a topic is seen and cleared on
    SUBSCRIBE, when a subscriber closes and when it reaches
    ``MAX_CACHED_TOPICS``.  A frame that would take a
    peer's queue above ``MAX_PEER_QUEUE`` bytes is dropped for that peer and
    counted in ``dropped``.  Every peer is read whatever its queue holds, so a
    client that publishes from its receive thread cannot stall the broker.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port, "broker")
        self._clients: dict = {}  # client_id -> _Peer
        self._subs: dict = {}  # _Peer -> the set of its filters
        self._routes: dict = {}  # topic bytes -> distinct matching peers
        self.dropped = 0

    @staticmethod
    def _owes(peer: _Peer) -> bool:
        # A connected peer with nothing half-sent either way may idle forever.
        return not peer.client_id or bool(peer.inbuf) or bool(peer.out)

    def _push(self, peer: _Peer, data) -> None:
        if len(peer.out) + len(data) > MAX_PEER_QUEUE:
            self.dropped += 1
        else:
            peer.out += data

    def _route(self, topic: bytes) -> tuple:
        """The distinct peers a PUBLISH to ``topic`` goes to; a wildcard topic goes to none."""
        text = _topic_text(topic)
        if "+" in text.split("/"):  # wildcards are filter-only
            targets = ()
        else:
            targets = tuple(p for p, filters in self._subs.items() if any(topic_matches(f, text) for f in filters))
        return _remember(self._routes, topic, targets)

    def _advance(self, peer: _Peer) -> None:
        """Handle every complete frame in ``inbuf``, then send what they queued."""
        buf, start, touched = peer.inbuf, 0, {peer}
        try:
            while len(buf) - start >= 5 and not peer.closing:
                kind, end = _frame_end(buf, start)
                if len(buf) < end:
                    break
                if kind is _PUBLISH and peer.client_id:
                    topic, _ = _u16_bytes(buf, start + 5, end, "topic")
                    targets = self._routes.get(topic)
                    if targets is None:
                        targets = self._route(topic)
                    if targets:
                        raw = buf[start:end]
                        for target in targets:
                            self._push(target, raw)
                        touched.update(targets)
                else:
                    frame = _parse_body(kind, buf, start + 5, end)
                    if not peer.client_id:
                        if kind != FrameKind.CONNECT:
                            raise FrameError(f"{kind.name} before CONNECT")
                        peer.closing = frame.client_id in self._clients  # a duplicate gets CONNACK 2
                        if not peer.closing:
                            peer.client_id = frame.client_id
                            self._clients[peer.client_id] = peer
                        self._push(peer, encode_frame(Frame(kind=FrameKind.CONNACK, code=2 if peer.closing else 0)))
                    elif kind == FrameKind.SUBSCRIBE:
                        filters = self._subs.setdefault(peer, set())
                        code = int(frame.topic not in filters and len(filters) >= MAX_PEER_FILTERS)
                        if not code:
                            filters.add(frame.topic)
                            self._routes.clear()
                        self._push(peer, encode_frame(Frame(kind=FrameKind.SUBACK, code=code)))
                    elif kind == FrameKind.PINGREQ:
                        self._push(peer, encode_frame(Frame(kind=FrameKind.PINGRESP)))
                    elif kind == FrameKind.DISCONNECT:
                        self._close(peer)
                        break
                start = end
        except FrameError as e:
            log.debug("broker peer %r dropped: %s", peer.client_id, e)
            self._close(peer)
        if start and peer in self._peers:
            del buf[:start]  # once per read, however many frames it held
            peer.deadline = time.monotonic() + PEER_TIMEOUT_S  # for the frame now under way, if any
        for target in touched:
            if target.out and not target.writing and target in self._peers:
                self._flush(target)

    def _close(self, peer: _Peer) -> None:
        super()._close(peer)
        self._clients.pop(peer.client_id, None)
        if self._subs.pop(peer, None) is not None:
            self._routes.clear()


class Session:
    """Client session; created via :func:`connect`.

    Subscription handlers run on the session's receive thread and must not
    block.  ``publish`` is fire-and-forget.  The receive thread parses
    PUBLISH frames in place and finds their handlers in a table from topic
    bytes to ``(topic, handlers)``, cleared on :meth:`subscribe` and when it
    reaches ``MAX_CACHED_TOPICS``; ``publish`` keeps each topic's encoded
    header in a table bounded the same way.
    """

    def __init__(self, sock: socket.socket, client_id: str):
        self._sock = sock
        self.client_id = client_id
        self._wlock = threading.Lock()
        self._topic_heads: dict = {}  # topic -> u16 length + UTF-8 bytes
        self._handlers: list = []
        self._routes: dict = {}  # topic bytes -> (topic, matching handlers); guarded by _hlock
        self._hlock = threading.Lock()
        self._acks: queue.Queue = queue.Queue()  # (kind, code) of each CONNACK and SUBACK; None once the loop ends
        self._closed = threading.Event()
        self._reader = threading.Thread(target=self._read_loop, name=f"bus-{client_id}", daemon=True)
        self._reader.start()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _send(self, data: bytes) -> None:
        if self._closed.is_set():
            raise SessionClosed(f"session {self.client_id} is closed")
        try:
            with self._wlock:
                self._sock.sendall(data)
        except OSError as e:
            self._closed.set()
            raise SessionClosed(f"send failed: {e}") from e

    def publish(self, topic: str, payload: bytes) -> None:
        """Send ``encode_frame(Frame(kind=PUBLISH, topic=topic, payload=payload))``."""
        head = self._topic_heads.get(topic) if type(topic) is str else None
        if head is None:
            validate_topic(topic)
            if "+" in topic.split("/"):
                raise FrameError("publish topics must not contain '+'")
            head = _remember(self._topic_heads, topic, _u16_str(topic))
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise FrameError(f"payload exceeds {MAX_PAYLOAD} bytes")
        self._send(b"".join((_HEADER.pack(_PUBLISH, len(head) + len(payload)), head, payload)))

    def _acknowledged(self, frame: Frame, kind: FrameKind) -> int | None:
        """Send ``frame``; the code of the ``kind`` ack it gets, or None after ``CLIENT_TIMEOUT_S``.

        Raises :class:`SessionClosed` at once if the session ends first, :class:`BusError` for another kind.
        """
        self._send(encode_frame(frame))
        try:
            ack = self._acks.get(timeout=CLIENT_TIMEOUT_S)
        except queue.Empty:
            return None
        if ack is None:
            self._acks.put(None)  # a later waiter fails at once too
            raise SessionClosed(f"session {self.client_id} ended before its {kind.name}")
        if ack[0] is not kind:
            raise BusError(f"expected {kind.name}, got {ack[0].name}")
        return ack[1]

    def subscribe(self, filter_: str, handler) -> None:
        """Register ``handler(topic, payload)`` for every message matching the filter.

        A subscribe that the broker does not acknowledge closes the session
        before it raises :class:`BusError`.
        """
        validate_topic(filter_, what="filter")
        with self._hlock:
            self._handlers.append((filter_, handler))
            self._routes.clear()
        try:
            code = self._acknowledged(Frame(kind=FrameKind.SUBSCRIBE, topic=filter_), FrameKind.SUBACK)
            if code is None:
                raise BusError("subscribe not acknowledged in time")
            if code != 0:
                raise BusError(f"subscribe rejected with code {code}")
        except BusError:
            self.close()  # else the broker keeps the client id and refuses the next connect
            raise

    def close(self) -> None:
        with contextlib.suppress(SessionClosed):  # closed already, or the broker has gone
            self._send(encode_frame(Frame(kind=FrameKind.DISCONNECT)))
        self._closed.set()
        with contextlib.suppress(OSError):  # the peer may have gone
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes the receive thread from recv
        with contextlib.suppress(OSError):
            self._sock.close()

    def _route(self, topic: bytes) -> tuple:
        """``(topic, handlers)`` for a received topic: one per matching subscription, in subscribe order."""
        text = _topic_text(topic)
        with self._hlock:
            return _remember(self._routes, topic, (text, tuple(h for f, h in self._handlers if topic_matches(f, text))))

    def _read_loop(self) -> None:
        buf = bytearray()
        try:
            while data := self._sock.recv(_RECV_BYTES):
                buf += data
                start = 0
                while len(buf) - start >= 5:
                    kind, end = _frame_end(buf, start)
                    if len(buf) < end:
                        break
                    if kind is _PUBLISH:
                        topic, payload_start = _u16_bytes(buf, start + 5, end, "topic")
                        text, handlers = self._routes.get(topic) or self._route(topic)
                        payload = bytes(buf[payload_start:end])
                        for handler in handlers:
                            try:
                                handler(text, payload)
                            except Exception:
                                log.exception("subscription handler failed for %s", text)
                    else:
                        frame = _parse_body(kind, buf, start + 5, end)
                        if kind in (FrameKind.CONNACK, FrameKind.SUBACK):
                            self._acks.put((kind, frame.code))
                    start = end
                del buf[:start]
        except FrameError as e:
            log.warning("session %s: malformed frame from the broker: %s", self.client_id, e)
        except OSError as e:
            if not self._closed.is_set():  # not the session's own close()
                log.warning("session %s: receive failed: %s", self.client_id, e)
        finally:
            self._closed.set()
            self._acks.put(None)


def connect(address: tuple, client_id: str) -> Session:
    """Open a session: TCP connect plus CONNECT/CONNACK handshake, each within ``CLIENT_TIMEOUT_S``.

    Raises :class:`ConnectTimeout`, :class:`DuplicateClientId`, or for any other failure (an unknown
    host, a broker that closes) :class:`ConnectRefused`.  A refused handshake sends DISCONNECT.
    """
    host, port = address
    try:
        sock = _connect(host, port)
    except socket.timeout as e:
        raise ConnectTimeout(f"no broker response from {host}:{port}") from e
    except OSError as e:  # refused, unreachable, unresolvable
        raise ConnectRefused(f"cannot connect to broker at {host}:{port}: {e}") from e
    sock.settimeout(None)  # the session's receive loop waits for the broker as long as it takes
    session = Session(sock, client_id)
    try:
        code = session._acknowledged(Frame(kind=FrameKind.CONNECT, client_id=client_id), FrameKind.CONNACK)
    except (BusError, FrameError) as e:
        session.close()
        raise ConnectRefused(f"handshake failed: {e}") from e
    if code != 0:
        session.close()
        if code is None:
            raise ConnectTimeout(f"handshake with {host}:{port} timed out")
        if code == 2:
            raise DuplicateClientId(f"client_id {client_id!r} already connected")
        raise ConnectRefused(f"connection rejected with code {code}")
    return session


# --- HTTP: one selectors loop serves, one raw-socket client asks ---------------


class RequestRejected(Exception):
    """The server rejected the request body (400-equivalent)."""


class BackendUnavailable(Exception):
    """The ingest backend could not take the message (503-equivalent)."""


_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def _json_reply(status: int, doc) -> tuple:
    """A route's ``(status, headers, body)`` reply with ``doc`` as its JSON body."""
    return status, (("Content-Type", "application/json"),), json.dumps(doc).encode("utf-8")


class _Refused(Exception):
    """A request answered with ``status`` before its body is read; the connection then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _header_fields(lines) -> dict:
    """Lower-case name -> stripped value of each header line of a request or a reply.

    Raises :class:`_Refused` (400) for a line without a colon and a repeated ``Content-Length``.
    """
    headers = {}
    for line in lines:
        name, colon, value = line.partition(b":")
        name = name.lower()
        if not colon:
            raise _Refused(400, "malformed header line")
        if name == b"content-length" and name in headers:
            raise _Refused(400, "repeated Content-Length")
        headers[name] = value.strip()
    return headers


def _parse_request_head(head: bytes, methods) -> tuple:
    """``(method, path, body_length, keep_alive, expect_continue)`` of one request head.

    Raises :class:`_Refused` for a malformed head (400), a method not in
    ``methods`` (501), and a ``Content-Length`` that is missing on a POST or
    not a decimal integer (400) or above ``MAX_PAYLOAD`` (413).
    """
    lines = head.split(b"\r\n")
    request_line = lines[0].split(b" ")
    if len(request_line) != 3 or request_line[2] not in (b"HTTP/1.1", b"HTTP/1.0"):
        raise _Refused(400, "malformed request line")
    method, target, version = request_line
    headers = _header_fields(lines[1:])
    method = method.decode("latin-1")
    if method not in methods:
        raise _Refused(501, f"method {method} not supported")
    length = headers.get(b"content-length", b"" if method == "POST" else b"0")
    if not length.isdigit():  # ASCII digits only, so no sign and no blank
        raise _Refused(400, "Content-Length must be a non-negative integer")
    if len(length) > 18 or int(length) > MAX_PAYLOAD:  # the length check bounds int()'s work
        raise _Refused(413, f"body exceeds {MAX_PAYLOAD} bytes")
    http11 = version == b"HTTP/1.1"
    keep_alive = http11 and b"close" not in headers.get(b"connection", b"").lower()
    expect_continue = http11 and headers.get(b"expect", b"").lower() == b"100-continue"
    return method, target.decode("latin-1"), int(length), keep_alive, expect_continue


class HttpServer(_LoopServer):
    """HTTP/1.1 as a protocol on a :class:`_LoopServer` loop.

    ``routes`` maps a method to ``handler(path, body) -> (status, headers,
    body)``; any other method gets 501.  Handlers run on the loop thread, so
    one that blocks stalls every connection.  ``Content-Length`` is checked
    before the body is read (see :func:`_parse_request_head`).  A refused
    request, ``Connection: close`` and HTTP/1.0 close the connection after the
    reply; otherwise pipelined requests are answered in order, each read only
    once no reply is pending.  A head above ``MAX_HTTP_HEAD`` gets 431, and
    ``Expect: 100-continue`` gets ``100 Continue`` once the length has passed.
    An idle keep-alive peer owes its next request, so it too has a deadline.
    """

    _WRITE_EVENTS = selectors.EVENT_WRITE  # the next request waits for the reply before it

    def __init__(self, routes: dict, host: str, port: int, name: str):
        super().__init__(host, port, name)
        self._routes = routes

    @staticmethod
    def _owes(peer: _Peer) -> bool:
        return True

    def _advance(self, peer: _Peer) -> None:
        """Answer the buffered requests in order while each reply drains at once."""
        while not peer.out and not peer.closing and self._answer_one(peer):
            self._flush(peer)

    def _answer_one(self, peer: _Peer) -> bool:
        """Queue the reply (or ``100 Continue``) the buffer now calls for; False if it needs more bytes."""
        if peer.request is None:
            end = peer.inbuf.find(b"\r\n\r\n")
            if end < 0 and len(peer.inbuf) <= MAX_HTTP_HEAD:
                return False
            try:
                if not 0 <= end <= MAX_HTTP_HEAD:
                    raise _Refused(431, f"request head exceeds {MAX_HTTP_HEAD} bytes")
                peer.request = _parse_request_head(bytes(peer.inbuf[:end]), self._routes)
            except _Refused as e:  # the unread body must not be parsed as the next request
                self._queue(peer, _json_reply(e.status, {"error": str(e)}), keep_alive=False)
                return True
            del peer.inbuf[: end + 4]
            if peer.request[4] and len(peer.inbuf) < peer.request[2]:
                peer.out += _CONTINUE
                return True
        method, path, length, keep_alive, _ = peer.request
        if len(peer.inbuf) < length:
            return False
        body = bytes(peer.inbuf[:length])
        del peer.inbuf[:length]
        peer.request = None
        try:
            reply = self._routes[method](path, body)
        except Exception:
            log.exception("HTTP route %s %s failed", method, path)
            reply = _json_reply(500, {"error": "internal server error"})
        self._queue(peer, reply, keep_alive)
        return True

    @staticmethod
    def _queue(peer: _Peer, reply: tuple, keep_alive: bool) -> None:
        status, headers, body = reply
        head = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"]
        head += [f"{name}: {value}" for name, value in headers]
        head.append(f"Content-Length: {len(body)}")
        if not keep_alive:
            head.append("Connection: close")
            peer.closing = True
        peer.out += "\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
        peer.out += body


def _recv_some(sock: socket.socket) -> bytes:
    data = sock.recv(_RECV_BYTES)
    if not data:
        raise ConnectionError("connection closed before the whole reply arrived")
    return data


def _connect(host: str, port: int) -> socket.socket:
    """A ``TCP_NODELAY`` connection to ``host``, a name or an address, timing out after ``CLIENT_TIMEOUT_S``."""
    sock = socket.create_connection((host, port), timeout=CLIENT_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


_idle: list = []  # (time.monotonic() it went idle, address, socket) of each pooled connection, in pooling order
_idle_lock = threading.Lock()


@atexit.register
def _close_idle() -> None:
    """Close every pooled connection, at interpreter exit."""
    with _idle_lock:
        for entry in _idle:
            entry[2].close()
        _idle.clear()


def _take_idle(address: tuple) -> socket.socket | None:
    """The connection to ``address`` pooled last, or None.

    Also closes every pooled connection, to any address, idle for
    ``CLIENT_TIMEOUT_S`` or longer: half the server's ``PEER_TIMEOUT_S``, so
    the client never races a server's idle eviction.
    """
    sock, kept, stale = None, [], []
    with _idle_lock:
        now = time.monotonic()
        for entry in reversed(_idle):
            if now - entry[0] >= CLIENT_TIMEOUT_S:
                stale.append(entry[2])
            elif sock is None and entry[1] == address:
                sock = entry[2]
            else:
                kept.append(entry)
        _idle[:] = reversed(kept)
    for old in stale:
        old.close()
    return sock


def _unread(sock: socket.socket) -> bool:
    """Whether an idle ``sock`` is still open with nothing to read: the server neither closed it nor sent unasked."""
    sock.settimeout(0.0)  # with a timeout set, recv first waits that long for bytes
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        sock.settimeout(CLIENT_TIMEOUT_S)
        return True
    except OSError:
        pass
    return False


def _http_request(address: tuple, method: str, path: str, body: bytes | None = None) -> tuple:
    """One request, on a pooled keep-alive connection when one is open; returns ``(status, headers, body)``.

    ``headers`` has lower-case names.  ``CLIENT_TIMEOUT_S`` bounds each
    socket operation.  A transport failure, a connection closed early and a
    malformed reply all raise ``OSError``.  Nothing is retried, on a reused
    connection either, so a request goes out at most once.  The connection
    goes back to the pool only after an ``HTTP/1.1`` reply without
    ``Connection: close`` whose bytes end exactly at its ``Content-Length``;
    any other outcome closes it.
    """
    host, port = address
    authority = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"  # an IPv6 literal is bracketed
    head = f"{method} {path} HTTP/1.1\r\nHost: {authority}\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    while (sock := _take_idle(address)) is not None and not _unread(sock):
        sock.close()
    if sock is None:
        sock = _connect(host, port)
    try:
        sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        buf = bytearray()
        while (end := buf.find(b"\r\n\r\n")) < 0:
            if len(buf) > MAX_HTTP_HEAD:
                raise ConnectionError(f"reply head exceeds {MAX_HTTP_HEAD} bytes")
            buf += _recv_some(sock)
        lines = bytes(buf[:end]).split(b"\r\n")
        status_line = lines[0].split(b" ", 2)
        if len(status_line) < 2 or not status_line[0].startswith(b"HTTP/1.") or not status_line[1].isdigit():
            raise ConnectionError(f"malformed reply status line {lines[0][:80]!r}")
        try:
            fields = _header_fields(lines[1:])
        except _Refused as e:
            raise ConnectionError(f"malformed reply head: {e}") from None
        headers = {name.decode("latin-1"): value.decode("latin-1") for name, value in fields.items()}
        length = headers.get("content-length", "")
        if not (length.isascii() and length.isdigit()) or len(length) > 18:  # the length check bounds int()'s work
            raise ConnectionError("reply has no valid Content-Length")
        start, stop = end + 4, end + 4 + int(length)
        while len(buf) < stop:
            buf += _recv_some(sock)
    except BaseException:
        sock.close()
        raise
    if len(buf) == stop and status_line[0] == b"HTTP/1.1" and "close" not in headers.get("connection", "").lower():
        with _idle_lock:
            _idle.append((time.monotonic(), address, sock))
    else:
        sock.close()
    return int(status_line[1]), headers, bytes(buf[start:stop])


# --- latency statistics and probe --------------------------------------------


@dataclass(frozen=True)
class LatencyStats:
    mean_ms: float
    min_ms: float
    max_ms: float
    stddev_ms: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.min_ms <= self.mean_ms <= self.max_ms:
            raise ValueError("min <= mean <= max violated")
        if self.stddev_ms < 0:
            raise ValueError("stddev must be >= 0")


def compute_stats(samples_ms) -> LatencyStats:
    """Mean/min/max and sample (n-1) standard deviation of the samples."""
    samples = list(samples_ms)
    if not samples:
        raise ValueError("no samples")
    lo, hi = min(samples), max(samples)
    # fmean can land one ulp outside [lo, hi]; the true mean never does
    mean = min(hi, max(lo, statistics.fmean(samples)))
    return LatencyStats(
        mean_ms=mean,
        min_ms=lo,
        max_ms=hi,
        stddev_ms=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        n=len(samples),
    )


@dataclass(frozen=True)
class DelaySpec:
    """Injected per-message server delay: ``normal:<mean>:<std>`` or ``constant:<ms>``."""

    kind: str
    mean_ms: float
    std_ms: float = 0.0

    def __post_init__(self):
        if self.kind not in ("normal", "constant"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if not (0 <= self.mean_ms < math.inf and 0 <= self.std_ms < math.inf):  # NaN fails too
            raise ValueError("delay parameters must be finite and >= 0")

    @classmethod
    def parse(cls, text: str) -> "DelaySpec":
        parts = text.split(":")
        if parts[0] == "constant" and len(parts) == 2:
            return cls(kind="constant", mean_ms=float(parts[1]))
        if parts[0] == "normal" and len(parts) == 3:
            return cls(kind="normal", mean_ms=float(parts[1]), std_ms=float(parts[2]))
        raise ValueError(f"cannot parse delay spec {text!r}")

    def sampler(self, seed: int):
        """A zero-argument draw of the next per-message delay in seconds, deterministic given ``seed``."""
        rng = random.Random(seed)

        def draw() -> float:
            if self.kind == "constant":
                return self.mean_ms / 1000.0
            return max(0.0, rng.gauss(self.mean_ms, self.std_ms)) / 1000.0

        return draw


@dataclass
class ProbeReport:
    stats: LatencyStats | None
    statuses: list = field(default_factory=list)
    samples_ms: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.statuses) and all(s == "ok" for s in self.statuses)


class EchoResponder:
    """Server-side probe responder: req topic in, same payload out on resp.

    ``delay_fn()`` (seconds), when given, is the injected-delay shim.
    """

    def __init__(self, broker_address: tuple, probe_id: str, delay_fn=None):
        self._session = connect(broker_address, f"echo-{probe_id}")
        resp_topic = f"probe/{probe_id}/resp"

        def on_req(_topic, payload):
            if delay_fn is not None:
                time.sleep(delay_fn())
            self._session.publish(resp_topic, payload)

        self._session.subscribe(f"probe/{probe_id}/req", on_req)

    def close(self) -> None:
        self._session.close()


def _probe(n: int, round_trip) -> ProbeReport:
    """Time ``n`` round trips; ``round_trip(i)`` returns the ``perf_counter()`` its answer arrived at, or None."""
    if n < 1:
        raise ValueError("n must be >= 1")
    samples, statuses = [], []
    for i in range(n):
        sent = time.perf_counter()
        arrived = round_trip(i)
        statuses.append("timeout" if arrived is None else "ok")
        if arrived is not None:
            samples.append((arrived - sent) * 1000.0)
    return ProbeReport(stats=compute_stats(samples) if samples else None, statuses=statuses, samples_ms=samples)


def pubsub_latency_probe(broker_address: tuple, n: int, payload_bytes: int, probe_id: str = "bench") -> ProbeReport:
    """Round-trip n sequenced messages through the broker and an echo responder."""
    if payload_bytes < 8:
        raise ValueError("payload_bytes must be >= 8 to carry the sequence header")
    inbox: queue.Queue = queue.Queue()
    req_topic, padding = f"probe/{probe_id}/req", b"x" * (payload_bytes - 8)

    def round_trip(i: int):
        session.publish(req_topic, struct.pack(">Q", i) + padding)
        deadline = time.perf_counter() + CLIENT_TIMEOUT_S
        try:
            while True:  # past the stale echoes of earlier timed-out probes
                got, at = inbox.get(timeout=max(0.0, deadline - time.perf_counter()))
                if struct.unpack_from(">Q", got)[0] == i:
                    return at
        except queue.Empty:
            return None

    session = connect(broker_address, f"probe-{probe_id}")
    try:
        session.subscribe(f"probe/{probe_id}/resp", lambda _t, p: inbox.put((p, time.perf_counter())))
        return _probe(n, round_trip)
    finally:
        session.close()


class ProbeHttpServer(HttpServer):
    """Answers ``POST /probe`` with ``{"n": <body length>}`` for :func:`http_latency_probe`.

    ``delay_fn()`` (seconds), when given, is the injected-delay shim.  It
    sleeps on the loop thread, which suits the probe's one request at a time.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, delay_fn=None):
        def post(path: str, body: bytes) -> tuple:
            if path != "/probe":
                return _json_reply(404, {"error": "unknown path"})
            if delay_fn is not None:
                time.sleep(delay_fn())
            return _json_reply(200, {"n": len(body)})

        super().__init__({"POST": post}, host, port, "probe-http")


def http_latency_probe(address: tuple, n: int, payload_bytes: int) -> ProbeReport:
    """Round-trip n probe POSTs on the client's pooled keep-alive connection; only the first pays the connect."""
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be >= 1")
    body = b"x" * payload_bytes

    def round_trip(_i: int):
        with contextlib.suppress(OSError):
            if _http_request(address, "POST", "/probe", body)[0] == 200:
                return time.perf_counter()
        return None

    return _probe(n, round_trip)


# --- HTTP ingest path ---------------------------------------------------------


class IngestHttpServer(HttpServer):
    """Request/response ingest endpoint: one snapshot per POST to /ingest.

    ``backend(payload) -> ack dict`` should raise :class:`RequestRejected`
    for invalid payloads (400); any other exception maps to 503, and any
    other path to 404.  It runs on the server's loop thread.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0):
        def post(path: str, body: bytes) -> tuple:
            if path != "/ingest":
                return _json_reply(404, {"error": "unknown path"})
            try:
                return _json_reply(200, backend(body))
            except RequestRejected as e:
                return _json_reply(400, {"error": str(e)})
            except Exception as e:
                log.warning("ingest backend failed: %s", e)
                return _json_reply(503, {"error": "ingest backend unavailable"})

        super().__init__({"POST": post}, host, port, "ingest-http")


def http_post_snapshot(address: tuple, payload: bytes) -> dict:
    """POST one encoded snapshot to /ingest; returns the server ack."""
    status, _, raw = _http_request(address, "POST", "/ingest", payload)
    if status == 200:
        return json.loads(raw)
    try:
        message = json.loads(raw).get("error", "")
    except (ValueError, AttributeError):
        message = raw.decode("utf-8", "replace")
    if status == 400:
        raise RequestRejected(message)
    if status == 503:
        raise BackendUnavailable(message)
    raise BusError(f"unexpected ingest status {status}: {message}")
