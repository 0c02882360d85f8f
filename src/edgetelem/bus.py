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
"""

from __future__ import annotations

import json
import logging
import queue
import random
import re
import socket
import statistics
import struct
import threading
import time
from dataclasses import dataclass, field
from enum import IntEnum
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

log = logging.getLogger(__name__)

MAX_PAYLOAD = 1 << 20        # 1 MiB
MAX_TOPIC_BYTES = 256
MAX_CLIENT_ID_BYTES = 256
MAX_BODY = MAX_PAYLOAD + MAX_TOPIC_BYTES + 2
SERVE_POLL_S = 0.05          # HTTP servers' shutdown poll interval

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
            conn.sock.settimeout(10.0)
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


def http_latency_probe(address: tuple, n: int, payload_bytes: int, timeout: float = 5.0) -> ProbeReport:
    """Round-trip n probe POSTs; one fresh connection per message."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if payload_bytes < 1:
        raise ValueError("payload_bytes must be >= 1")
    host, port = address
    samples, statuses = [], []
    body = b"x" * payload_bytes
    for _ in range(n):
        sent = time.perf_counter()
        try:
            conn = HTTPConnection(host, port, timeout=timeout)
            conn.request("POST", "/probe", body=body, headers={"Connection": "close"})
            resp = conn.getresponse()
            resp.read()
            conn.close()
            ok = resp.status == 200
        except OSError:
            ok = False
        if ok:
            samples.append((time.perf_counter() - sent) * 1000.0)
            statuses.append("ok")
        else:
            statuses.append("timeout")
    return ProbeReport(stats=compute_stats(samples) if samples else None, statuses=statuses, samples_ms=samples)


# --- HTTP ingest path ---------------------------------------------------------


class RequestRejected(Exception):
    """The server rejected the request body (400-equivalent)."""


class BackendUnavailable(Exception):
    """The ingest backend could not take the message (503-equivalent)."""


class HttpServer:
    """A ``ThreadingHTTPServer`` served from a daemon thread.

    ``serve_forever`` polls for shutdown every ``SERVE_POLL_S`` seconds, which
    bounds how long :meth:`stop` waits.
    """

    def __init__(self, handler_class, host: str, port: int, name: str):
        self._httpd = ThreadingHTTPServer((host, port), handler_class)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(SERVE_POLL_S,), name=name, daemon=True
        )

    def start(self) -> "HttpServer":
        self._thread.start()
        return self

    @property
    def address(self) -> tuple:
        return self._httpd.server_address[:2]

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


class QuietHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 request handler that logs at debug level, never to stdout."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # stdout stays machine-parseable
        log.debug("http %s", fmt % args)


class IngestHttpServer(HttpServer):
    """Request/response ingest endpoint: one snapshot per POST to /ingest.

    ``backend(payload) -> ack dict`` should raise :class:`RequestRejected`
    for invalid payloads; any other exception maps to 503.  /probe answers
    latency probes, applying the optional injected-delay shim.  A POST body
    is read only when its Content-Length is a decimal integer of at most
    ``MAX_PAYLOAD`` bytes: a larger one is answered 413, a missing or
    malformed one 400.
    """

    def __init__(self, backend, host: str = "127.0.0.1", port: int = 0, probe_delay_fn=None):
        self._backend = backend
        self._probe_delay_fn = probe_delay_fn
        self._probe_count = 0
        outer = self

        class Handler(QuietHandler):
            def _reply(self, status: int, doc: dict, close: bool = False) -> None:
                raw = json.dumps(doc).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(raw)))
                if close:  # an unread body must not be parsed as the next request
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(raw)

            def do_POST(self):
                header = self.headers.get("Content-Length", "")
                if not (header.isascii() and header.isdigit()):
                    self._reply(400, {"error": "Content-Length must be a non-negative integer"}, close=True)
                    return
                length = int(header)
                if length > MAX_PAYLOAD:
                    self._reply(413, {"error": f"body exceeds {MAX_PAYLOAD} bytes"}, close=True)
                    return
                body = self.rfile.read(length)
                if self.path == "/ingest":
                    try:
                        ack = outer._backend(body)
                    except RequestRejected as e:
                        self._reply(400, {"error": str(e)})
                        return
                    except Exception as e:
                        log.warning("ingest backend failed: %s", e)
                        self._reply(503, {"error": "ingest backend unavailable"})
                        return
                    self._reply(200, ack)
                elif self.path == "/probe":
                    index = outer._probe_count
                    outer._probe_count += 1
                    if outer._probe_delay_fn is not None:
                        time.sleep(outer._probe_delay_fn(index))
                    self._reply(200, {"n": len(body)})
                else:
                    self._reply(404, {"error": "unknown path"})

        super().__init__(Handler, host, port, "ingest-http")


def http_post_snapshot(address: tuple, payload: bytes, timeout: float = 5.0) -> dict:
    """POST one encoded snapshot to /ingest; returns the server ack."""
    host, port = address
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/ingest", body=payload, headers={"Connection": "close"})
        resp = conn.getresponse()
        raw = resp.read()
    finally:
        conn.close()
    if resp.status == 200:
        return json.loads(raw)
    try:
        message = json.loads(raw).get("error", "")
    except (ValueError, AttributeError):
        message = raw.decode("utf-8", "replace")
    if resp.status == 400:
        raise RequestRejected(message)
    if resp.status == 503:
        raise BackendUnavailable(message)
    raise BusError(f"unexpected ingest status {resp.status}: {message}")
