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
and a send failure drops that subscriber.  Per publisher, messages arrive in
publish order.

HTTP endpoints (snapshot ingest, the model store, the latency probe) are
route functions on :class:`HttpServer`, one ``selectors`` loop on one thread;
:func:`_http_request` is the one client, a fresh connection per call.
"""

from __future__ import annotations

import json
import logging
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
PEER_TIMEOUT_S = 10.0        # HTTP peer request/idle deadline; the broker's CONNECT timeout
SERVE_POLL_S = 0.05          # HTTP loop's poll interval: bounds stop() and peer eviction

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


def _u16_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


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
    return bytes([f.kind]) + struct.pack(">I", len(body)) + body


def _take_u16_str(body: bytes, what: str) -> tuple:
    if len(body) < 2:
        raise FrameError(f"truncated {what} length")
    (n,) = struct.unpack(">H", body[:2])
    if len(body) < 2 + n:
        raise FrameError(f"truncated {what}")
    try:
        return body[2 : 2 + n].decode("utf-8"), body[2 + n :]
    except UnicodeDecodeError:
        raise FrameError(f"{what} is not valid UTF-8") from None


def _parse_body(kind: FrameKind, body: bytes) -> Frame:
    if kind == FrameKind.CONNECT:
        client_id, rest = _take_u16_str(body, "client_id")
        if rest:
            raise FrameError("trailing bytes after client_id")
        return Frame(kind=kind, client_id=client_id)
    if kind in (FrameKind.CONNACK, FrameKind.SUBACK):
        if len(body) != 1:
            raise FrameError("ack body must be exactly one byte")
        return Frame(kind=kind, code=body[0])
    if kind == FrameKind.SUBSCRIBE:
        topic, rest = _take_u16_str(body, "filter")
        if rest:
            raise FrameError("trailing bytes after filter")
        return Frame(kind=kind, topic=topic)
    if kind == FrameKind.PUBLISH:
        topic, rest = _take_u16_str(body, "topic")
        return Frame(kind=kind, topic=topic, payload=rest)
    if body:
        raise FrameError(f"{kind.name} carries no body")
    return Frame(kind=kind)


def _parse_header(header: bytes) -> tuple:
    """``(kind, body_len)`` of a 5-byte frame header."""
    try:
        kind = FrameKind(header[0])
    except ValueError:
        raise FrameError(f"unknown frame kind {header[0]}") from None
    (body_len,) = struct.unpack(">I", header[1:5])
    if body_len > MAX_BODY:
        raise FrameError(f"body length {body_len} exceeds limit")
    return kind, body_len


def decode_frame(data: bytes) -> Frame:
    """Parse exactly one frame; inverse of :func:`encode_frame`."""
    if len(data) < 5:
        raise FrameError("truncated header")
    kind, body_len = _parse_header(data[:5])
    if len(data) != 5 + body_len:
        raise FrameError("frame length mismatch")
    return _parse_body(kind, data[5:])


def _read_exact(sock: socket.socket, n: int):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def _read_frame(sock: socket.socket):
    """Read one frame from a stream; None on clean EOF."""
    header = _read_exact(sock, 5)
    if header is None:
        return None
    kind, body_len = _parse_header(header)
    body = _read_exact(sock, body_len) if body_len else b""
    if body is None:
        raise FrameError("connection closed mid-frame")
    return _parse_body(kind, body)


class _BrokerConn:
    def __init__(self, sock: socket.socket, peer):
        self.sock = sock
        self.peer = peer
        self.client_id = ""
        self._wlock = threading.Lock()

    def send(self, frame: Frame) -> None:
        with self._wlock:
            self.sock.sendall(encode_frame(frame))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class Broker:
    """Threaded pub/sub broker; one reader thread per connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._host = host
        self._port = port
        self._server: socket.socket | None = None
        self._lock = threading.Lock()
        self._clients: dict = {}
        self._subs: list = []  # (filter, _BrokerConn)
        self._stopping = threading.Event()

    def start(self) -> "Broker":
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._host, self._port))
        server.listen(64)
        self._server = server
        threading.Thread(target=self._accept_loop, name="broker-accept", daemon=True).start()
        return self

    @property
    def address(self) -> tuple:
        assert self._server is not None, "broker not started"
        return self._server.getsockname()[:2]

    def stop(self) -> None:
        self._stopping.set()
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        with self._lock:
            conns = list(self._clients.values())
            self._clients.clear()
            self._subs.clear()
        for conn in conns:
            conn.close()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, peer = self._server.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _BrokerConn(sock, peer)
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: _BrokerConn) -> None:
        try:
            conn.sock.settimeout(PEER_TIMEOUT_S)
            first = _read_frame(conn.sock)
            if first is None or first.kind != FrameKind.CONNECT:
                conn.close()
                return
            with self._lock:
                if first.client_id in self._clients:
                    duplicate = True
                else:
                    duplicate = False
                    conn.client_id = first.client_id
                    self._clients[first.client_id] = conn
            if duplicate:
                conn.send(Frame(kind=FrameKind.CONNACK, code=2))
                conn.close()
                return
            conn.send(Frame(kind=FrameKind.CONNACK, code=0))
            conn.sock.settimeout(None)
            while True:
                frame = _read_frame(conn.sock)
                if frame is None or frame.kind == FrameKind.DISCONNECT:
                    return
                if frame.kind == FrameKind.SUBSCRIBE:
                    with self._lock:
                        self._subs.append((frame.topic, conn))
                    conn.send(Frame(kind=FrameKind.SUBACK, code=0))
                elif frame.kind == FrameKind.PUBLISH:
                    self._route(frame)
                elif frame.kind == FrameKind.PINGREQ:
                    conn.send(Frame(kind=FrameKind.PINGRESP))
        except (FrameError, OSError) as e:
            log.debug("connection %s dropped: %s", conn.peer, e)
        finally:
            self._unregister(conn)
            conn.close()

    def _route(self, frame: Frame) -> None:
        if "+" in frame.topic.split("/"):
            return  # wildcards are filter-only; such publishes are dropped
        with self._lock:
            targets = [c for f, c in self._subs if topic_matches(f, frame.topic)]
        for target in targets:
            try:
                target.send(frame)
            except OSError:
                self._unregister(target)
                target.close()

    def _unregister(self, conn: _BrokerConn) -> None:
        with self._lock:
            if conn.client_id and self._clients.get(conn.client_id) is conn:
                del self._clients[conn.client_id]
            self._subs = [(f, c) for f, c in self._subs if c is not conn]


class Session:
    """Client session; created via :func:`connect`.

    Subscription handlers run on the session's receive thread and must not
    block.  ``publish`` is fire-and-forget.
    """

    def __init__(self, sock: socket.socket, client_id: str):
        self._sock = sock
        self.client_id = client_id
        self._wlock = threading.Lock()
        self._handlers: list = []
        self._hlock = threading.Lock()
        self._subacks: queue.Queue = queue.Queue()
        self._closed = threading.Event()
        self._reader = threading.Thread(target=self._read_loop, name=f"bus-{client_id}", daemon=True)
        self._reader.start()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def _send(self, frame: Frame) -> None:
        if self._closed.is_set():
            raise SessionClosed(f"session {self.client_id} is closed")
        try:
            with self._wlock:
                self._sock.sendall(encode_frame(frame))
        except OSError as e:
            self._closed.set()
            raise SessionClosed(f"send failed: {e}") from e

    def publish(self, topic: str, payload: bytes) -> None:
        validate_topic(topic)
        if "+" in topic.split("/"):
            raise FrameError("publish topics must not contain '+'")
        self._send(Frame(kind=FrameKind.PUBLISH, topic=topic, payload=bytes(payload)))

    def subscribe(self, filter_: str, handler, timeout: float = 5.0) -> None:
        """Register ``handler(topic, payload)`` for every message matching the filter."""
        validate_topic(filter_, what="filter")
        with self._hlock:
            self._handlers.append((filter_, handler))
        self._send(Frame(kind=FrameKind.SUBSCRIBE, topic=filter_))
        try:
            code = self._subacks.get(timeout=timeout)
        except queue.Empty:
            raise BusError("subscribe not acknowledged in time") from None
        if code != 0:
            raise BusError(f"subscribe rejected with code {code}")

    def close(self) -> None:
        if not self._closed.is_set():
            try:
                self._send(Frame(kind=FrameKind.DISCONNECT))
            except SessionClosed:
                pass
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass

    def _read_loop(self) -> None:
        try:
            while True:
                frame = _read_frame(self._sock)
                if frame is None:
                    break
                if frame.kind == FrameKind.PUBLISH:
                    with self._hlock:
                        handlers = [h for f, h in self._handlers if topic_matches(f, frame.topic)]
                    for handler in handlers:
                        try:
                            handler(frame.topic, frame.payload)
                        except Exception:
                            log.exception("subscription handler failed for %s", frame.topic)
                elif frame.kind == FrameKind.SUBACK:
                    self._subacks.put(frame.code)
        except (FrameError, OSError):
            pass
        finally:
            self._closed.set()


def connect(address: tuple, client_id: str, timeout: float = 5.0) -> Session:
    """Open a session: TCP connect plus CONNECT/CONNACK handshake.

    Raises :class:`ConnectTimeout`, :class:`ConnectRefused`, or
    :class:`DuplicateClientId` as distinct failure kinds.
    """
    host, port = address
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout as e:
        raise ConnectTimeout(f"no broker response from {host}:{port}") from e
    except ConnectionRefusedError as e:
        raise ConnectRefused(f"broker at {host}:{port} refused connection") from e
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.sendall(encode_frame(Frame(kind=FrameKind.CONNECT, client_id=client_id)))
        ack = _read_frame(sock)
    except socket.timeout:
        sock.close()
        raise ConnectTimeout(f"handshake with {host}:{port} timed out") from None
    except (OSError, FrameError) as e:
        sock.close()
        raise ConnectRefused(f"handshake failed: {e}") from e
    if ack is None or ack.kind != FrameKind.CONNACK:
        sock.close()
        raise ConnectRefused("expected CONNACK")
    if ack.code == 2:
        sock.close()
        raise DuplicateClientId(f"client_id {client_id!r} already connected")
    if ack.code != 0:
        sock.close()
        raise ConnectRefused(f"connection rejected with code {ack.code}")
    sock.settimeout(None)
    return Session(sock, client_id)


# --- HTTP: one selectors loop serves, one raw-socket client asks ---------------


class RequestRejected(Exception):
    """The server rejected the request body (400-equivalent)."""


class BackendUnavailable(Exception):
    """The ingest backend could not take the message (503-equivalent)."""


_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_RECV_BYTES = 1 << 16


def _json_reply(status: int, doc) -> tuple:
    """A route's ``(status, headers, body)`` reply with ``doc`` as its JSON body."""
    return status, (("Content-Type", "application/json"),), json.dumps(doc).encode("utf-8")


class _Refused(Exception):
    """A request answered with ``status`` before its body is read; the connection then closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


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
    headers = {}
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        name = name.lower()
        if not colon:
            raise _Refused(400, "malformed header line")
        if name == b"content-length" and name in headers:
            raise _Refused(400, "repeated Content-Length")
        headers[name] = value.strip()
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


class _HttpConn:
    __slots__ = ("sock", "inbuf", "out", "request", "deadline", "closing", "writing")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbuf = bytearray()
        self.out = bytearray()
        self.request = None  # the parsed head while its body is read
        self.deadline = time.monotonic() + PEER_TIMEOUT_S
        self.closing = False  # close once ``out`` has drained
        self.writing = False  # registered for EVENT_WRITE, not EVENT_READ


class HttpServer:
    """HTTP/1.1 server: one ``selectors`` loop on one thread, however many peers.

    ``routes`` maps a method to ``handler(path, body) -> (status, headers,
    body)``; any other method gets 501.  Handlers run on the loop thread, so
    one that blocks stalls every connection.  A request's ``Content-Length``
    is checked before its body is read (see :func:`_parse_request_head`); a
    refused request, like one with ``Connection: close`` or from HTTP/1.0,
    closes the connection once its reply is sent.  Otherwise the connection
    stays open and buffered pipelined requests are answered in order.  A head
    above ``MAX_HTTP_HEAD`` bytes gets 431.  ``Expect: 100-continue`` is
    answered ``100 Continue`` once the length has passed.  A reply is written
    from a non-blocking buffer, and requests are read only while no reply is
    pending.  A peer gets ``PEER_TIMEOUT_S`` to deliver a whole request, or
    to stay idle between requests, or to take a pending reply's next byte;
    past that it is closed.  The loop polls every ``SERVE_POLL_S``, which
    bounds how long :meth:`stop` waits.
    """

    def __init__(self, routes: dict, host: str, port: int, name: str):
        self._routes = routes
        self._listener = socket.create_server((host, port), backlog=128)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns: set = set()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, name=name, daemon=True)

    def start(self) -> "HttpServer":
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
        for conn in list(self._conns):
            self._close(conn)
        self._selector.close()
        self._listener.close()

    def _serve(self) -> None:
        next_sweep = time.monotonic() + SERVE_POLL_S
        while not self._stopping.is_set():
            for key, _ in self._selector.select(SERVE_POLL_S):
                if key.data is None:
                    self._accept()
                else:
                    self._step(key.data)
            now = time.monotonic()
            if now >= next_sweep:
                next_sweep = now + SERVE_POLL_S
                for conn in [c for c in self._conns if c.deadline <= now]:
                    log.debug("HTTP peer evicted: no progress in %.1f s", PEER_TIMEOUT_S)
                    self._close(conn)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as e:  # e.g. out of file descriptors; the backlog keeps the peer
                log.warning("HTTP accept failed: %s", e)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _HttpConn(sock)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._step(conn)  # a client's request usually follows its connect at once

    def _step(self, conn: _HttpConn) -> None:
        """Write the pending reply, or read and answer requests."""
        try:
            if conn.writing:
                self._flush(conn)
            else:
                self._read(conn)
        except Exception:  # the loop serves every other peer; drop only this one
            log.exception("HTTP connection failed")
            if conn in self._conns:
                self._close(conn)

    def _close(self, conn: _HttpConn) -> None:
        self._conns.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _read(self, conn: _HttpConn) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        self._advance(conn)

    def _advance(self, conn: _HttpConn) -> None:
        """Answer the buffered requests in order while each reply drains at once."""
        while not conn.out and not conn.closing and self._answer_one(conn):
            self._flush(conn)

    def _answer_one(self, conn: _HttpConn) -> bool:
        """Queue the reply (or ``100 Continue``) the buffer now calls for; False if it needs more bytes."""
        if conn.request is None:
            end = conn.inbuf.find(b"\r\n\r\n")
            if end < 0 and len(conn.inbuf) <= MAX_HTTP_HEAD:
                return False
            try:
                if not 0 <= end <= MAX_HTTP_HEAD:
                    raise _Refused(431, f"request head exceeds {MAX_HTTP_HEAD} bytes")
                conn.request = _parse_request_head(bytes(conn.inbuf[:end]), self._routes)
            except _Refused as e:  # the unread body must not be parsed as the next request
                self._queue(conn, _json_reply(e.status, {"error": str(e)}), keep_alive=False)
                return True
            del conn.inbuf[: end + 4]
            if conn.request[4] and len(conn.inbuf) < conn.request[2]:
                conn.out += _CONTINUE
                return True
        method, path, length, keep_alive, _ = conn.request
        if len(conn.inbuf) < length:
            return False
        body = bytes(conn.inbuf[:length])
        del conn.inbuf[:length]
        conn.request = None
        try:
            reply = self._routes[method](path, body)
        except Exception:
            log.exception("HTTP route %s %s failed", method, path)
            reply = _json_reply(500, {"error": "internal server error"})
        self._queue(conn, reply, keep_alive)
        return True

    @staticmethod
    def _queue(conn: _HttpConn, reply: tuple, keep_alive: bool) -> None:
        status, headers, body = reply
        head = [f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"]
        head += [f"{name}: {value}" for name, value in headers]
        head.append(f"Content-Length: {len(body)}")
        if not keep_alive:
            head.append("Connection: close")
            conn.closing = True
        conn.out += "\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
        conn.out += body

    def _flush(self, conn: _HttpConn) -> None:
        """Send what the socket takes now; wait for EVENT_WRITE while a reply is pending."""
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent:
            del conn.out[:sent]
            conn.deadline = time.monotonic() + PEER_TIMEOUT_S
        if conn.out:
            if not conn.writing:
                conn.writing = True
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
        elif conn.closing:
            self._close(conn)
        elif conn.writing:
            conn.writing = False
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
            self._advance(conn)


def _recv_some(sock: socket.socket) -> bytes:
    data = sock.recv(_RECV_BYTES)
    if not data:
        raise ConnectionError("connection closed before the whole reply arrived")
    return data


def _http_request(address: tuple, method: str, path: str, body: bytes | None = None, timeout: float = 5.0) -> tuple:
    """One request on a fresh connection; returns ``(status, headers, body)``.

    ``headers`` has lower-case names.  ``timeout`` bounds each socket
    operation.  A transport failure, a connection closed early and a
    malformed reply all raise ``OSError``.
    """
    host, port = address
    head = f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\nConnection: close\r\n"
    if body is not None:
        head += f"Content-Length: {len(body)}\r\n"
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode("latin-1")] = value.strip().decode("latin-1")
        length = headers.get("content-length", "")
        if not (length.isascii() and length.isdigit()):
            raise ConnectionError("reply has no valid Content-Length")
        start, stop = end + 4, end + 4 + int(length)
        while len(buf) < stop:
            buf += _recv_some(sock)
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
        if self.mean_ms < 0 or self.std_ms < 0:
            raise ValueError("delay parameters must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "DelaySpec":
        parts = text.split(":")
        if parts[0] == "constant" and len(parts) == 2:
            return cls(kind="constant", mean_ms=float(parts[1]))
        if parts[0] == "normal" and len(parts) == 3:
            return cls(kind="normal", mean_ms=float(parts[1]), std_ms=float(parts[2]))
        raise ValueError(f"cannot parse delay spec {text!r}")

    def sampler(self, seed: int):
        """Deterministic per-message delay in seconds."""
        rng = random.Random(seed)

        def draw(_index: int) -> float:
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

    ``delay_fn(index)`` (seconds), when given, is the injected-delay shim.
    """

    def __init__(self, broker_address: tuple, probe_id: str, delay_fn=None):
        self._session = connect(broker_address, f"echo-{probe_id}")
        self._count = 0
        self._delay_fn = delay_fn
        resp_topic = f"probe/{probe_id}/resp"

        def on_req(_topic, payload):
            if self._delay_fn is not None:
                time.sleep(self._delay_fn(self._count))
            self._count += 1
            self._session.publish(resp_topic, payload)

        self._session.subscribe(f"probe/{probe_id}/req", on_req)

    def close(self) -> None:
        self._session.close()


def pubsub_latency_probe(
    broker_address: tuple,
    n: int,
    payload_bytes: int,
    probe_id: str = "bench",
    timeout: float = 5.0,
) -> ProbeReport:
    """Round-trip n sequenced messages through the broker and an echo responder."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if payload_bytes < 8:
        raise ValueError("payload_bytes must be >= 8 to carry the sequence header")
    inbox: queue.Queue = queue.Queue()
    session = connect(broker_address, f"probe-{probe_id}")
    try:
        session.subscribe(f"probe/{probe_id}/resp", lambda _t, p: inbox.put((p, time.perf_counter())))
        samples, statuses = [], []
        req_topic = f"probe/{probe_id}/req"
        for i in range(n):
            payload = struct.pack(">Q", i) + b"x" * (payload_bytes - 8)
            sent = time.perf_counter()
            session.publish(req_topic, payload)
            deadline = sent + timeout
            status = "timeout"
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    got, at = inbox.get(timeout=remaining)
                except queue.Empty:
                    break
                (seq,) = struct.unpack(">Q", got[:8])
                if seq == i:
                    samples.append((at - sent) * 1000.0)
                    status = "ok"
                    break
                # stale response from an earlier timed-out probe; keep waiting
            statuses.append(status)
        return ProbeReport(stats=compute_stats(samples) if samples else None, statuses=statuses, samples_ms=samples)
    finally:
        session.close()


class ProbeHttpServer(HttpServer):
    """Answers ``POST /probe`` with ``{"n": <body length>}`` for :func:`http_latency_probe`.

    ``delay_fn(index)`` (seconds), when given, is the injected-delay shim.  It
    sleeps on the loop thread, which suits the probe's one request at a time.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, delay_fn=None):
        count = 0

        def post(path: str, body: bytes) -> tuple:
            nonlocal count
            if path != "/probe":
                return _json_reply(404, {"error": "unknown path"})
            if delay_fn is not None:
                time.sleep(delay_fn(count))
            count += 1
            return _json_reply(200, {"n": len(body)})

        super().__init__({"POST": post}, host, port, "probe-http")


def http_latency_probe(address: tuple, n: int, payload_bytes: int, timeout: float = 5.0) -> ProbeReport:
    """Round-trip n probe POSTs; one fresh connection per message."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be >= 1")
    samples, statuses = [], []
    body = b"x" * payload_bytes
    for _ in range(n):
        sent = time.perf_counter()
        try:
            ok = _http_request(address, "POST", "/probe", body, timeout)[0] == 200
        except OSError:
            ok = False
        if ok:
            samples.append((time.perf_counter() - sent) * 1000.0)
            statuses.append("ok")
        else:
            statuses.append("timeout")
    return ProbeReport(stats=compute_stats(samples) if samples else None, statuses=statuses, samples_ms=samples)


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


def http_post_snapshot(address: tuple, payload: bytes, timeout: float = 5.0) -> dict:
    """POST one encoded snapshot to /ingest; returns the server ack."""
    status, _, raw = _http_request(address, "POST", "/ingest", payload, timeout)
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
