"""Cloud-side service: ingest, enrichment, data lake, rules, dispatch, model store.

Snapshots arriving over either transport converge on one serialized ingest
path per service: decode, enrich with a server timestamp and a dense record
id, append to the lake, evaluate feedback rules, dispatch any fired actions.
Payloads that fail validation are preserved in a dead-letter file instead of
being persisted or silently dropped.

The lake is newline-delimited JSON partitioned as
``<root>/<device_id>/<yyyymmdd>.jsonl`` (UTC day of the ingest time) --
append-only, greppable, and byte-reproducible when driven from a logical
clock.  A line holds the snapshot payload as received when the compact
snapshot pattern validated it, and the payload re-encoded otherwise.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import operator
import os
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .agent import ActionKind, ActionMessage, ModelNotFound, encode_action
from .bandwidth import BandwidthPredictor, Placement, PredictorConfig, decide_placement
from .bus import BusError, HttpServer, RequestRejected
from .telemetry import (
    INT_TOKEN,
    NUMERIC_PATHS,
    TelemetryError,
    TelemetrySnapshot,
    _SNAPSHOT_RE,
    _doc_value,
    _reference_from_wire,
    _template_pattern,
    bounded,
    check_bounds,
    decode_snapshot,
    from_doc,
    snapshot_from_tokens,
    snapshot_text,
)

log = logging.getLogger(__name__)

__all__ = [
    "Transport",
    "LakeRecord",
    "LakeError",
    "Lake",
    "Comparator",
    "ActionTemplate",
    "Rule",
    "RuleState",
    "RuleConfigError",
    "Firing",
    "evaluate_rules",
    "initial_rule_state",
    "BandwidthRuleConfig",
    "RuleSet",
    "rules_from_dict",
    "IngestRejected",
    "DispatchDown",
    "CloudService",
    "ModelStore",
    "ModelStoreHttpServer",
]


class Transport(str, Enum):
    PUBSUB = "PubSub"
    HTTP = "Http"


@dataclass(frozen=True)
class LakeRecord:
    """A snapshot enriched with server-side ingest metadata."""

    snapshot: TelemetrySnapshot
    ingest_time_ms: int
    transport: Transport
    record_id: int


RECORD_KEYS = ("record_id", "ingest_time_ms", "transport", "snapshot")
# A JSON object's compact encoding is the concatenation of its members'
# encodings, so a record line is the enrichment members around the snapshot's.
_RECORD_LINE = b'{"record_id":%d,"ingest_time_ms":%d,"transport":"%s","snapshot":%s}'
_TRANSPORT_TEXT = {t: t.value.encode() for t in Transport}


def _record_line(rec: LakeRecord, snapshot: bytes) -> bytes:
    """The lake line of ``rec`` around its snapshot's compact JSON, without the newline."""
    return _RECORD_LINE % (rec.record_id, rec.ingest_time_ms, _TRANSPORT_TEXT[rec.transport], snapshot)


def encode_record(rec: LakeRecord) -> bytes:
    return _record_line(rec, snapshot_text(rec.snapshot).encode())


_TRANSPORT_TOKEN = b"(" + b"|".join(map(re.escape, _TRANSPORT_TEXT.values())) + b")"
_RECORD_HEAD, _RECORD_TAIL = _RECORD_LINE.rsplit(b"%s", 1)
# The line before its snapshot, with a token per placeholder: the two ints and the transport.
_RECORD_HEAD_RE = re.compile(_template_pattern(_RECORD_HEAD, (INT_TOKEN, INT_TOKEN, _TRANSPORT_TOKEN)))
_TRANSPORTS = {text: t for t, text in _TRANSPORT_TEXT.items()}


def decode_record(line: bytes) -> LakeRecord:
    """Parse one lake line.

    A line as the lake writes it is built from the tokens of the record's
    head pattern and the snapshot pattern, matched over the bytes between
    the head and the closing brace; any other line, and one whose snapshot
    fails a check there, goes through ``json.loads`` and the reference path.
    """
    head = _RECORD_HEAD_RE.match(line)
    if head is not None and line.endswith(_RECORD_TAIL):
        match = _SNAPSHOT_RE.fullmatch(line, head.end(), len(line) - len(_RECORD_TAIL))
        snapshot = None if match is None else snapshot_from_tokens(match.groups())
        if snapshot is not None:
            record_id, ingest_time_ms, transport = head.groups()
            return LakeRecord(snapshot, int(ingest_time_ms), _TRANSPORTS[transport], int(record_id))
    try:
        doc = json.loads(line)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("a record must be a JSON object")
    if set(doc) != set(RECORD_KEYS):
        raise ValueError(f"unexpected record keys {sorted(doc)}")
    return LakeRecord(
        snapshot=_reference_from_wire(doc["snapshot"]),
        ingest_time_ms=_doc_value(int, doc["ingest_time_ms"], "ingest_time_ms", ValueError),
        transport=Transport(doc["transport"]),
        record_id=_doc_value(int, doc["record_id"], "record_id", ValueError),
    )


class LakeError(Exception):
    """Lake file unreadable or corrupted; carries the file path."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)


_DAY_MS = 86_400_000
_APPEND_FLAGS = os.O_WRONLY | os.O_APPEND | os.O_CREAT
_TAIL_BYTES = 1 << 16  # the first read back from a partition's end when the lake is recovered


def _append_line(path: str, line: bytes) -> None:
    # One write per record: only a process killed inside the write, which a
    # fatal signal can cut short at a page boundary, leaves a torn line.
    fd = os.open(path, _APPEND_FLAGS, 0o644)
    try:
        written = os.write(fd, line)
    finally:
        os.close(fd)
    if written != len(line):
        raise OSError(errno.EIO, f"short write: {written} of {len(line)} bytes", path)


def _day_start_ms(name: str) -> int | None:
    """Start of the UTC day a partition file stem names, or None if it names none."""
    try:
        day = datetime.strptime(name, "%Y%m%d").replace(tzinfo=timezone.utc)
    except ValueError:
        return None
    return int(day.timestamp()) * 1000


class Lake:
    """Append-only telemetry record store partitioned per device and UTC day."""

    DEAD_LETTER_FILE = "dead_letter.jsonl"

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.torn_lines = 0
        self.dead_letters = 0
        self._days: dict = {}  # device_id -> (day start ms, day end ms, partition path)

    def _partition(self, device_id: str, ingest_time_ms: int) -> str:
        day = self._days.get(device_id)
        if day is not None and day[0] <= ingest_time_ms < day[1]:
            return day[2]
        start = ingest_time_ms - ingest_time_ms % _DAY_MS
        name = datetime.fromtimestamp(start / 1000, tz=timezone.utc).strftime("%Y%m%d")
        directory = self.root / device_id
        directory.mkdir(parents=True, exist_ok=True)
        path = str(directory / f"{name}.jsonl")
        self._days[device_id] = (start, start + _DAY_MS, path)
        return path

    def append(self, rec: LakeRecord, wire: bytes | None = None) -> None:
        """Store one record as one line.

        ``wire`` is the snapshot's payload as ``decode_snapshot(..., wire=True)``
        returned it: compact JSON that :data:`SNAPSHOT_PATTERN` matched and
        that decodes to ``rec.snapshot``.  It is written as received;
        without it, the line is :func:`encode_record`'s.
        """
        line = (encode_record(rec) if wire is None else _record_line(rec, wire)) + b"\n"
        device_id = rec.snapshot.device.device_id
        try:
            _append_line(self._partition(device_id, rec.ingest_time_ms), line)
        except FileNotFoundError:
            # The device directory was removed behind the cache: recreate it, once.
            self._days.pop(device_id, None)
            _append_line(self._partition(device_id, rec.ingest_time_ms), line)

    def dead_letter(self, ingest_time_ms: int, transport: Transport, error: str, payload: bytes) -> None:
        entry = {
            "ingest_time_ms": ingest_time_ms,
            "transport": transport.value,
            "error": error,
            "payload_hex": payload.hex(),
        }
        self._dead_letter(entry)

    def _dead_letter(self, entry: dict) -> None:
        line = json.dumps(entry, separators=(",", ":")).encode("utf-8") + b"\n"
        _append_line(str(self.root / self.DEAD_LETTER_FILE), line)
        self.dead_letters += 1

    def recover(self) -> tuple:
        """``(next record id, {device_id: last ingest_time_ms})``, for the lake's one writer to go on from.

        Reads each device's newest partitions back to their last whole line.
        A torn trailing fragment (a crash mid-append) moves to the dead-letter
        file and is cut off its partition, so the next append starts a line.
        It writes, so a reader of a lake that may be in use must not call it.
        """
        next_id, last_ingest = 0, {}
        for directory in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for path in reversed(self._partitions(directory.name)):
                line = self._last_whole_line(path)
                if line is not None:
                    try:
                        rec = decode_record(line)
                    except (ValueError, TelemetryError) as e:
                        raise LakeError(path, f"corrupt last record: {e}") from e
                    next_id = max(next_id, rec.record_id + 1)
                    last_ingest[directory.name] = rec.ingest_time_ms
                    break
        return next_id, last_ingest

    def _last_whole_line(self, path: Path) -> bytes | None:
        """The last whole line of a partition, once a torn fragment after it is dead-lettered and cut off."""
        with open(path, "r+b") as fh:
            size, span = fh.seek(0, os.SEEK_END), _TAIL_BYTES
            while True:  # widen the read until it holds the last whole line from its start
                start = max(0, size - span)
                fh.seek(start)
                tail = fh.read()
                cut = tail.rfind(b"\n") + 1  # just after the last whole line; 0 if the read holds none
                begin = tail.rfind(b"\n", 0, max(cut - 1, 0)) + 1
                if begin or not start:
                    break
                span *= 2
            if cut < len(tail):
                log.warning("moving a torn trailing fragment of %s to the dead-letter file", path)
                entry = {"partition": f"{path.parent.name}/{path.name}", "offset": start + cut, "error": "torn tail"}
                self._dead_letter({**entry, "payload_hex": tail[cut:].hex()})
                fh.truncate(start + cut)
        return tail[begin : cut - 1] if cut else None

    def _partitions(self, device_id: str) -> list:
        directory = self.root / device_id
        if not directory.exists():
            return []
        return sorted(directory.glob("*.jsonl"))

    def _read(self, path: Path) -> list:
        try:
            data = path.read_bytes()
        except OSError as e:
            raise LakeError(path, f"unreadable: {e}") from e
        lines = data.split(b"\n")
        tail = lines.pop()
        if tail:
            self.torn_lines += 1
            log.warning("tolerating torn trailing record in %s", path)
        records = []
        for lineno, line in enumerate(lines, start=1):
            try:
                records.append(decode_record(line))
            except (ValueError, TelemetryError) as e:
                raise LakeError(path, f"corrupt record at line {lineno}: {e}") from e
        return records

    def scan(self, device_id: str) -> list:
        """All records for a device in record_id (write) order."""
        return [r for path in self._partitions(device_id) for r in self._read(path)]

    def query(self, device_id: str, from_ms: int, to_ms: int) -> list:
        """Records with from_ms <= ingest_time_ms < to_ms, in record_id order.

        Reads only the day partitions that overlap the window (and any file
        whose name is not a day), so a corrupt partition outside the window
        does not make the query fail.
        """
        records = []
        for path in self._partitions(device_id):
            start = _day_start_ms(path.stem)
            if start is not None and max(start, from_ms) >= min(start + _DAY_MS, to_ms):
                continue
            records.extend(r for r in self._read(path) if from_ms <= r.ingest_time_ms < to_ms)
        return records


# --- feedback rules -----------------------------------------------------------


class Comparator(str, Enum):
    GT = "GT"
    LT = "LT"
    GE = "GE"
    LE = "LE"


_OPERATORS = {
    Comparator.GT: operator.gt,
    Comparator.LT: operator.lt,
    Comparator.GE: operator.ge,
    Comparator.LE: operator.le,
}


class RuleConfigError(ValueError):
    pass


_PATH_SET = {".".join(p) for p in NUMERIC_PATHS}


@dataclass(frozen=True)
class ActionTemplate:
    """The command a rule emits when it fires; digest may be resolved at dispatch."""

    action: ActionKind
    model_id: str | None = None
    expected_digest: str | None = None
    placement: Placement | None = None

    def __post_init__(self):
        if self.action == ActionKind.SWAP_MODEL and not self.model_id:
            raise RuleConfigError("SwapModel action requires model_id")
        if self.action == ActionKind.SET_PLACEMENT and self.placement is None:
            raise RuleConfigError("SetPlacement action requires placement")


@dataclass(frozen=True)
class Rule:
    """A threshold on one numeric snapshot field.

    Construction binds the field's getter and the comparator's operator as
    attributes outside the dataclass fields, so equality, hashing and repr
    are those of the fields alone.
    """

    rule_id: str
    metric_path: str
    comparator: Comparator
    threshold: float
    action: ActionTemplate
    cooldown_ticks: int = bounded(3, ge=1)
    consecutive_required: int = bounded(2, ge=1)

    def __post_init__(self):
        check_bounds(self)
        if not self.rule_id:
            raise RuleConfigError("rule_id must be non-empty")
        if self.metric_path not in _PATH_SET:
            raise RuleConfigError(
                f"rule {self.rule_id}: metric_path {self.metric_path!r} does not "
                f"resolve to a numeric snapshot field"
            )
        object.__setattr__(self, "_metric", operator.attrgetter(self.metric_path))
        object.__setattr__(self, "_holds", _OPERATORS[self.comparator])

    def predicate(self, snapshot: TelemetrySnapshot) -> bool:
        return self._holds(self._metric(snapshot), self.threshold)


@dataclass(frozen=True)
class RuleState:
    """Per (device, rule) hysteresis counters."""

    consecutive_hits: int = 0
    ticks_since_fire: int = 0


def initial_rule_state(rule: Rule) -> RuleState:
    # Start with the cooldown already elapsed so the first qualifying streak fires.
    return RuleState(consecutive_hits=0, ticks_since_fire=rule.cooldown_ticks)


@dataclass(frozen=True)
class Firing:
    rule_id: str
    action: ActionTemplate


_RULE_ID = operator.attrgetter("rule_id")


def evaluate_rules(snapshot: TelemetrySnapshot, rules, states) -> tuple:
    """Evaluate one snapshot against a rule set.

    Pure function of its inputs.  A rule fires when its predicate has held
    for ``consecutive_required`` consecutive snapshots of the device and at
    least ``cooldown_ticks`` snapshots have passed since it last fired.
    Returns (firings ordered by rule_id, new per-rule states); the rules may
    come in any order.
    """
    firings = []
    new_states = {}
    for rule in rules:
        rule_id = rule.rule_id
        state = states.get(rule_id)
        if state is None:
            state = initial_rule_state(rule)
        ticks_since_fire = state.ticks_since_fire + 1
        hits = state.consecutive_hits + 1 if rule.predicate(snapshot) else 0
        if hits >= rule.consecutive_required and ticks_since_fire >= rule.cooldown_ticks:
            firings.append(Firing(rule_id, rule.action))
            ticks_since_fire = 0
        new_states[rule_id] = RuleState(hits, ticks_since_fire)
    if len(firings) > 1:
        firings.sort(key=_RULE_ID)  # stable, as sorting the rules was
    return firings, new_states


@dataclass(frozen=True)
class BandwidthRuleConfig(PredictorConfig):
    """Placement feedback driven by the bandwidth predictor.

    The device is sent to local inference when the predicted downlink rate
    stays below ``required_mbps`` for ``consecutive_required`` snapshots, and
    back to the edge when it clears ``required_mbps * reentry_margin`` the
    same way.  Inactive until the predictor window holds ``min_window``
    samples, so cold-start fallback predictions never flip placement.  The
    predictor's own fields and its bound check are inherited, so the fields
    sit flat beside these.
    """

    rule_id: str = "r3-placement"
    required_mbps: float = bounded(6.0, gt=0.0)
    reentry_margin: float = bounded(1.25, ge=1.0)
    consecutive_required: int = bounded(2, ge=1)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...] = ()
    bandwidth: BandwidthRuleConfig | None = None

    def __post_init__(self):
        ids = [r.rule_id for r in self.rules]
        if len(set(ids)) != len(ids):
            raise RuleConfigError("duplicate rule_id in rule set")
        if self.bandwidth is not None and self.bandwidth.rule_id in ids:
            raise RuleConfigError("bandwidth rule_id collides with a threshold rule")


def rules_from_dict(doc: dict) -> RuleSet:
    """Load a rule set from parsed JSON config."""
    return from_doc(RuleSet, doc, RuleConfigError)


# --- model store ----------------------------------------------------------------


class ModelStore:
    """Directory of model blobs with a digest manifest.

    Layout: ``<root>/<model_id>.bin`` plus ``<root>/manifest.json`` mapping
    model_id to {digest, size}.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root):
        self.root = Path(root)
        manifest_path = self.root / self.MANIFEST
        if not manifest_path.exists():
            raise FileNotFoundError(f"model store manifest not found: {manifest_path}")
        self.manifest = json.loads(manifest_path.read_text())

    @classmethod
    def create(cls, root, blobs: dict) -> "ModelStore":
        """Write blobs and a manifest with their true digests."""
        rootp = Path(root)
        rootp.mkdir(parents=True, exist_ok=True)
        manifest = {}
        for model_id, blob in blobs.items():
            (rootp / f"{model_id}.bin").write_bytes(blob)
            manifest[model_id] = {"digest": hashlib.sha256(blob).hexdigest(), "size": len(blob)}
        (rootp / cls.MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True))
        return cls(rootp)

    def ids(self) -> list:
        return sorted(self.manifest)

    def digest(self, model_id: str) -> str:
        try:
            return self.manifest[model_id]["digest"]
        except KeyError:
            raise ModelNotFound(model_id) from None

    def get(self, model_id: str) -> tuple:
        """Returns (blob bytes, manifest digest); digest is a claim, not proof."""
        digest = self.digest(model_id)
        path = self.root / f"{model_id}.bin"
        if not path.exists():
            raise ModelNotFound(model_id)
        return path.read_bytes(), digest


class ModelStoreHttpServer(HttpServer):
    """Serves ``GET /models/<model_id>`` with the manifest digest in a header."""

    def __init__(self, store: ModelStore, host: str = "127.0.0.1", port: int = 0):
        def get(path: str, _body: bytes) -> tuple:
            if path.startswith("/models/"):
                try:
                    blob, digest = store.get(path[len("/models/") :])
                except ModelNotFound:
                    return 404, (), b""
                return 200, (("Content-Type", "application/octet-stream"), ("X-Model-Digest", digest)), blob
            return 404, (), b""

        super().__init__({"GET": get}, host, port, "model-store")


# --- the service ------------------------------------------------------------------


class IngestRejected(RequestRejected):
    """Payload failed decoding/validation; it was dead-lettered, not persisted."""


class DispatchDown(Exception):
    """Raised by a dispatcher when the action channel is unavailable."""


class _DeviceState:
    def __init__(self, bandwidth: BandwidthRuleConfig | None):
        self.rule_states: dict = {}
        self.last_ingest_ms = 0
        self.predictor = BandwidthPredictor(bandwidth) if bandwidth else None
        self.placement = Placement.EDGE
        self.switch_hits = 0


class CloudService:
    """Single ingest pipeline feeding the lake, the rules engine, and dispatch.

    ``dispatcher(device_id, ActionMessage)`` sends feedback; raising
    :class:`DispatchDown` drops the action (control actions are never
    replayed stale).  Any other failure of the feedback loop is logged and
    counted in ``feedback_errors``; it never raises out of :meth:`ingest`
    once the record is stored.  ``clock_ms`` defaults to the wall clock;
    scenario runs inject a logical clock for byte-exact replay.
    """

    def __init__(
        self,
        lake: Lake,
        rules: RuleSet | None = None,
        dispatcher=None,
        store: ModelStore | None = None,
        clock_ms=None,
    ):
        self.lake = lake
        self.rules = rules if rules is not None else RuleSet()
        self.store = store
        self._dispatcher = dispatcher
        self._clock_ms = clock_ms if clock_ms is not None else (lambda: int(time.time() * 1000))
        self._lock = threading.Lock()
        self._devices: dict = {}
        self._record_id, last_ingest = lake.recover()
        for device_id, ingest_time_ms in last_ingest.items():
            self._device(device_id).last_ingest_ms = ingest_time_ms
        self._action_seq = 0
        self.dispatched = 0
        self.dropped_dispatches = 0
        self.feedback_errors = 0
        self.dispatch_log: list = []  # (device_id, ActionMessage)

    @property
    def dead_letters(self) -> int:
        return self.lake.dead_letters

    def _device(self, device_id: str) -> _DeviceState:
        state = self._devices.get(device_id)
        if state is None:
            state = _DeviceState(self.rules.bandwidth)
            self._devices[device_id] = state
        return state

    def ingest(self, payload: bytes, transport: Transport) -> LakeRecord:
        """Persist one snapshot and run the feedback loop for its device."""
        with self._lock:
            now = int(self._clock_ms())
            try:
                snapshot, wire = decode_snapshot(payload, wire=True)
            except TelemetryError as e:
                self.lake.dead_letter(now, transport, str(e), bytes(payload))
                raise IngestRejected(str(e)) from None
            device = self._device(snapshot.device.device_id)
            ingest_time = max(now, device.last_ingest_ms)  # per-device non-decreasing
            record = LakeRecord(
                snapshot=snapshot,
                ingest_time_ms=ingest_time,
                transport=transport,
                record_id=self._record_id,
            )
            self.lake.append(record, wire)
            # Committed only once the record is stored: a failed write leaves no id gap.
            self._record_id += 1
            device.last_ingest_ms = ingest_time
            try:
                self._feedback(snapshot, device, ingest_time)
            except Exception:
                # The record is stored: raising would make a client that retries store it twice.
                log.exception("feedback failed for record %d of %s", record.record_id, snapshot.device.device_id)
                self.feedback_errors += 1
            return record

    def http_backend(self, payload: bytes) -> dict:
        """Adapter for :class:`edgetelem.bus.IngestHttpServer`."""
        rec = self.ingest(payload, Transport.HTTP)
        return {"record_id": rec.record_id, "ingest_time_ms": rec.ingest_time_ms}

    # -- feedback

    def _feedback(self, snapshot: TelemetrySnapshot, device: _DeviceState, now_ms: int) -> None:
        firings, device.rule_states = evaluate_rules(snapshot, self.rules.rules, device.rule_states)
        pending = [(f.rule_id, f.action) for f in firings]
        placement_firing = self._bandwidth_feedback(snapshot, device)
        if placement_firing is not None:
            pending.append(placement_firing)
            pending.sort(key=lambda item: item[0])
        for rule_id, template in pending:
            self._dispatch(snapshot.device.device_id, rule_id, template, now_ms)

    def _bandwidth_feedback(self, snapshot: TelemetrySnapshot, device: _DeviceState):
        cfg = self.rules.bandwidth
        if cfg is None or device.predictor is None:
            return None
        net = snapshot.network
        warm = len(device.predictor) >= cfg.min_window
        predicted = device.predictor.predict(net)
        device.predictor.update(net, net.dl_mbps)
        if not warm:
            return None
        target = decide_placement(predicted, cfg.required_mbps, device.placement, cfg.reentry_margin)
        if target == device.placement:
            device.switch_hits = 0
            return None
        device.switch_hits += 1
        if device.switch_hits < cfg.consecutive_required:
            return None
        device.placement = target
        device.switch_hits = 0
        return (cfg.rule_id, ActionTemplate(ActionKind.SET_PLACEMENT, placement=target))

    def _dispatch(self, device_id: str, rule_id: str, template: ActionTemplate, now_ms: int) -> None:
        expected_digest = template.expected_digest
        if template.action == ActionKind.SWAP_MODEL and expected_digest is None:
            if self.store is None:
                log.error("rule %s: no model store to resolve digest for %s", rule_id, template.model_id)
                self.dropped_dispatches += 1
                return
            try:
                expected_digest = self.store.digest(template.model_id)
            except ModelNotFound:
                log.error("rule %s: model %s not in store manifest", rule_id, template.model_id)
                self.dropped_dispatches += 1
                return
        message = ActionMessage(
            action=template.action,
            rule_id=rule_id,
            issued_at_ms=now_ms,
            seq=self._action_seq,
            model_id=template.model_id,
            expected_digest=expected_digest,
            placement=template.placement,
        )
        self._action_seq += 1
        if self._dispatcher is None:
            self.dropped_dispatches += 1
            return
        try:
            self._dispatcher(device_id, message)
        except DispatchDown as e:
            log.warning("dropping action %s for %s: %s", message.action.value, device_id, e)
            self.dropped_dispatches += 1
            return
        self.dispatched += 1
        self.dispatch_log.append((device_id, message))


def make_bus_dispatcher(session):
    """Dispatcher publishing action JSON to ``actions/<device_id>``."""
    def dispatch(device_id: str, message: ActionMessage) -> None:
        try:
            session.publish(f"actions/{device_id}", encode_action(message))
        except (BusError, OSError) as e:
            raise DispatchDown(str(e)) from e

    return dispatch
