"""Telemetry domain types and the canonical JSON snapshot encoding.

Every sample that crosses the wire is a :class:`TelemetrySnapshot` serialized
by :func:`encode_snapshot`: UTF-8 JSON with a fixed key order and shortest
round-trip float form, so encodings are byte-stable across processes and can
be digested, diffed, or replayed.

Wire schema (exact key names, in order).  The order is the field order of
the dataclasses below, which are the only statement of it::

    device_id, platform_kind, seq, device_time_ms,
    app     {ee_latency_ms, fps},
    model   {accel_utilization, mem_throughput_gbps, cpu_utilization,
             mem_utilization, model_efficiency, model_id},
    energy  {power_w, temp_c, fps_per_watt},
    network {rssi_dbm, rsrq_db, rsrp_dbm, modem_temp_c, dl_mbps, ul_mbps}
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter, itemgetter
from typing import get_type_hints

__all__ = [
    "TelemetryError",
    "ValidationError",
    "SchemaError",
    "ParseError",
    "PlatformKind",
    "DeviceIdentity",
    "AppMetrics",
    "ModelMetrics",
    "EnergyMetrics",
    "NetworkMetrics",
    "ModelProfile",
    "TelemetrySnapshot",
    "model_efficiency",
    "fps_per_watt",
    "encode_snapshot",
    "decode_snapshot",
]

DEVICE_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")
SHA256_HEX_RE = re.compile(r"[0-9a-f]{64}")

# fps may be a windowed average, so it is allowed to drift from 1000/latency
# by at most this relative amount.
FPS_COHERENCE_SLACK = 0.05


class TelemetryError(ValueError):
    """Base class for snapshot parse, schema, and validation failures."""


class ValidationError(TelemetryError):
    """A field value violates a type invariant."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class SchemaError(TelemetryError):
    """A JSON document does not match the snapshot schema (missing/extra key)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ParseError(TelemetryError):
    """Input is not well-formed JSON; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _as_float(field: str, value, ge=None, gt=None, le=None, lt=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, "must be a real number")
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(field, "must be finite")
    if ge is not None and v < ge:
        raise ValidationError(field, f"must be >= {ge}, got {v}")
    if gt is not None and v <= gt:
        raise ValidationError(field, f"must be > {gt}, got {v}")
    if le is not None and v > le:
        raise ValidationError(field, f"must be <= {le}, got {v}")
    if lt is not None and v >= lt:
        raise ValidationError(field, f"must be < {lt}, got {v}")
    return v


def _as_int(field: str, value, *, ge=None, gt=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, "must be an integer")
    if ge is not None and value < ge:
        raise ValidationError(field, f"must be >= {ge}, got {value}")
    if gt is not None and value <= gt:
        raise ValidationError(field, f"must be > {gt}, got {value}")
    return value


def _as_str(field: str, value) -> str:
    if not isinstance(value, str):
        raise ValidationError(field, "must be a string")
    return value


def _as_nonempty_str(field: str, value) -> str:
    if not _as_str(field, value):
        raise ValidationError(field, "must be non-empty")
    return value


_set = object.__setattr__  # assigns a field of a frozen dataclass


class PlatformKind(str, Enum):
    """Kind of edge platform reporting telemetry (extensible)."""

    SIMULATED_DPU = "SimulatedDPU"


@dataclass(frozen=True)
class DeviceIdentity:
    """Opaque per-agent identity; ``device_id`` is unique within a deployment."""

    device_id: str
    platform_kind: PlatformKind = PlatformKind.SIMULATED_DPU

    def __post_init__(self):
        did = _as_str("device_id", self.device_id)
        if not DEVICE_ID_RE.fullmatch(did):
            raise ValidationError(
                "device_id", "must match [A-Za-z0-9_-]{1,64}"
            )
        kind = self.platform_kind
        if not isinstance(kind, PlatformKind):
            try:
                kind = PlatformKind(_as_str("platform_kind", kind))
            except ValueError:
                raise ValidationError("platform_kind", f"unknown kind {kind!r}") from None
            _set(self, "platform_kind", kind)


def _real(*, ge=None, gt=None, le=None, lt=None):
    """A float field of a metric group; its bounds are checked on construction."""
    return field(metadata={"bounds": (ge, gt, le, lt)})


class _Metrics:
    """Base of the snapshot's metric groups.

    ``_floats`` holds ``(name, ge, gt, le, lt)`` for each :func:`_real` field,
    and ``_check_floats`` checks those fields; :func:`_metric_group` builds
    both once per class.
    """

    _floats = ()

    def __post_init__(self):
        self._check_floats()


def _float_checker(floats: tuple):
    """Generate a ``_check_floats`` method for a ``_floats`` table.

    Per field, a finite ``float`` within bounds passes inline; any other value
    goes to :func:`_as_float`, which converts an int and raises the message.
    """
    lines = ["def _check_floats(self):"]
    for name, ge, gt, le, lt in floats:
        bounds = ((">=", ge), (">", gt), ("<=", le), ("<", lt))
        terms = ["type(v) is float", *(f"v {op} {bound!r}" for op, bound in bounds if bound is not None)]
        # A bound on each side makes the value finite; every comparison is false for NaN.
        if ge is None and gt is None:
            terms.append("v > _NINF")
        if le is None and lt is None:
            terms.append("v < _INF")
        lines += [
            f"    v = self.{name}",
            f"    if not ({' and '.join(terms)}):",
            f"        _set(self, {name!r}, _as_float({name!r}, v, {ge!r}, {gt!r}, {le!r}, {lt!r}))",
        ]
    lines.append("    pass")  # a table without floats
    namespace = {"_INF": math.inf, "_NINF": -math.inf, "_as_float": _as_float, "_set": _set}
    exec("\n".join(lines), namespace)
    return namespace["_check_floats"]


def _metric_group(cls):
    """Class decorator: a frozen dataclass with its ``_floats`` table and checker."""
    cls = dataclass(frozen=True)(cls)
    cls._floats = tuple((f.name, *f.metadata["bounds"]) for f in fields(cls) if "bounds" in f.metadata)
    cls._check_floats = _float_checker(cls._floats)
    return cls


@_metric_group
class AppMetrics(_Metrics):
    """Application-level metrics: per-frame latency and throughput."""

    ee_latency_ms: float = _real(gt=0.0)  # end-to-end latency per frame, milliseconds
    fps: float = _real(ge=0.0)

    def __post_init__(self):
        super().__post_init__()
        if self.fps > 0:
            derived = 1000.0 / self.ee_latency_ms
            if abs(self.fps - derived) / self.fps > FPS_COHERENCE_SLACK:
                raise ValidationError(
                    "fps",
                    f"{self.fps} deviates more than {FPS_COHERENCE_SLACK:.0%} "
                    f"from 1000/ee_latency_ms = {derived:.6g}",
                )


@_metric_group
class ModelMetrics(_Metrics):
    """Accelerator and memory utilization of the active AI model.

    ``model_efficiency`` is carried as reported by the producer; it can only
    be cross-checked where the active model profile is known.
    """

    accel_utilization: float = _real(ge=0.0, le=1.0)
    mem_throughput_gbps: float = _real(ge=0.0)
    cpu_utilization: float = _real(ge=0.0, le=1.0)
    mem_utilization: float = _real(ge=0.0, le=1.0)
    model_efficiency: float = _real(ge=0.0)
    model_id: str

    def __post_init__(self):
        super().__post_init__()
        _as_nonempty_str("model_id", self.model_id)


@_metric_group
class EnergyMetrics(_Metrics):
    """Whole-platform power draw and derived energy efficiency."""

    power_w: float = _real(gt=0.0)
    temp_c: float = _real()
    fps_per_watt: float = _real(ge=0.0)


@_metric_group
class NetworkMetrics(_Metrics):
    """Cellular modem measurements, constrained to standard LTE reporting ranges."""

    rssi_dbm: float = _real(ge=-120.0, le=0.0)
    rsrq_db: float = _real(ge=-25.0, le=0.0)
    rsrp_dbm: float = _real(ge=-140.0, le=-40.0)
    modem_temp_c: float = _real()
    dl_mbps: float = _real(ge=0.0)
    ul_mbps: float = _real(ge=0.0)


@dataclass(frozen=True)
class ModelProfile:
    """Deployable AI-model descriptor.

    ``workload_gops`` is the compute cost of one frame; ``base_latency_ms``
    the calibrated end-to-end latency at maximum clock.  ``accel_utilization``
    is the nominal accelerator duty the model sustains, used by the platform
    power model.
    """

    model_id: str
    workload_gops: float
    base_latency_ms: float
    artifact_digest: str
    artifact_size_bytes: int
    accel_utilization: float = 1.0

    def __post_init__(self):
        _as_nonempty_str("model_id", self.model_id)
        _set(self, "workload_gops", _as_float("workload_gops", self.workload_gops, gt=0.0))
        _set(self, "base_latency_ms", _as_float("base_latency_ms", self.base_latency_ms, gt=0.0))
        digest = _as_str("artifact_digest", self.artifact_digest)
        if not SHA256_HEX_RE.fullmatch(digest):
            raise ValidationError("artifact_digest", "must be 64 lowercase hex chars")
        _as_int("artifact_size_bytes", self.artifact_size_bytes, gt=0)
        _set(self, "accel_utilization", _as_float("accel_utilization", self.accel_utilization, ge=0.0, le=1.0))


@dataclass(frozen=True)
class TelemetrySnapshot:
    """One timestamped sample of app + model + energy + network metrics.

    Immutable after construction; construction enforces every invariant, so a
    snapshot instance is always safe to encode and share between threads.
    """

    device: DeviceIdentity
    seq: int
    device_time_ms: int
    app: AppMetrics
    model: ModelMetrics
    energy: EnergyMetrics
    network: NetworkMetrics

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.device, DeviceIdentity):
            raise ValidationError("device", "must be a DeviceIdentity")
        _as_int("seq", self.seq, ge=0)
        _as_int("device_time_ms", self.device_time_ms, ge=0)
        for name, typ, _ in _GROUPS:
            if not isinstance(getattr(self, name), typ):
                raise ValidationError(name, f"must be a {typ.__name__}")
        expected = self.app.fps / self.energy.power_w
        if not math.isclose(self.energy.fps_per_watt, expected, rel_tol=1e-9, abs_tol=1e-12):
            raise ValidationError(
                "fps_per_watt",
                f"{self.energy.fps_per_watt} != fps/power_w = {expected!r}",
            )


def model_efficiency(fps: float, workload_gops: float, peak_gops_per_s: float) -> float:
    """Fraction of the accelerator's peak compute the model actually achieves.

    Defined as achieved frames/s divided by the frame rate the accelerator
    could theoretically sustain (peak rate / per-frame workload).
    """
    if workload_gops <= 0:
        raise ValueError(f"workload_gops must be > 0, got {workload_gops}")
    if peak_gops_per_s <= 0:
        raise ValueError(f"peak_gops_per_s must be > 0, got {peak_gops_per_s}")
    if fps < 0:
        raise ValueError(f"fps must be >= 0, got {fps}")
    return fps * workload_gops / peak_gops_per_s


def fps_per_watt(fps: float, power_w: float) -> float:
    """Frames processed per second per watt of platform power."""
    if power_w <= 0:
        raise ValueError(f"power_w must be > 0, got {power_w}")
    if fps < 0:
        raise ValueError(f"fps must be >= 0, got {fps}")
    return fps / power_w


# --- canonical JSON encoding -------------------------------------------------

def _typed_fields(cls) -> tuple:
    """``(name, type)`` of each dataclass field, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


_SNAPSHOT_FIELDS = _typed_fields(TelemetrySnapshot)


def _wire_layout():
    """``(key, attribute path, member keys or None)`` per top-level wire key, in order.

    The order is the dataclass field order: the device identity's fields sit
    at the top level, each metric group is a nested object.
    """
    for name, hint in _SNAPSHOT_FIELDS:
        if hint is DeviceIdentity:
            for key, typ in _typed_fields(hint):
                yield key, f"{name}.{key}.value" if issubclass(typ, Enum) else f"{name}.{key}", None
        elif issubclass(hint, _Metrics):
            yield name, name, tuple(f.name for f in fields(hint))
        else:
            yield name, name, None


_WIRE_LAYOUT = tuple(_wire_layout())
_DEVICE_KEYS = tuple(f.name for f in fields(DeviceIdentity))
_device_values = itemgetter(*_DEVICE_KEYS)
_INT_KEYS = tuple(name for name, hint in _SNAPSHOT_FIELDS if hint is int)
#: ``(key, dataclass, member keys)`` per metric group, in wire order.
_GROUPS = tuple(
    (name, hint, tuple(f.name for f in fields(hint)))
    for name, hint in _SNAPSHOT_FIELDS
    if issubclass(hint, _Metrics)
)
TOP_KEYS = tuple(key for key, _, _ in _WIRE_LAYOUT)

#: Every leaf of the wire document as a key path, in wire order.
WIRE_PATHS = tuple(
    path
    for key, _, members in _WIRE_LAYOUT
    for path in ([(key,)] if members is None else [(key, m) for m in members])
)

#: All dotted numeric paths a feedback rule may reference.
NUMERIC_PATHS = (
    *((key,) for key in _INT_KEYS),
    *((key, name) for key, cls, _ in _GROUPS for name, *_bounds in cls._floats),
)


def snapshot_to_wire(s: TelemetrySnapshot) -> dict:
    """Build the wire dict with keys in the documented order."""
    # A metric group's instance dict holds exactly its fields, in field
    # order: the generated __init__ sets them so, and the group is frozen.
    wire = {}
    for key, path, members in _WIRE_LAYOUT:
        value = attrgetter(path)(s)
        wire[key] = value if members is None else vars(value).copy()
    return wire


#: The reference encoder of the wire dict; :func:`snapshot_text` produces its output.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_str = json.encoder.encode_basestring


def _leaf_type(path: str) -> type:
    """The type of the value at a dotted attribute path of a snapshot."""
    typ = TelemetrySnapshot
    for part in path.split("."):
        typ = str if issubclass(typ, str) else get_type_hints(typ)[part]  # a str enum's value is a str
    return typ


def _text_encoder():
    """Generate ``snapshot_text(s)``, equal to ``_ENCODER.encode(snapshot_to_wire(s))``.

    One ``%`` template holds every key, escaped here once; each leaf is
    formatted as the C encoder formats it: a float by ``float.__repr__``, an
    int by ``int.__repr__`` and a string by ``encode_basestring``, the escaper
    ``_ENCODER`` uses with ``ensure_ascii=False``.
    """
    formats = {float: "_float", int: "_int", str: "_str"}
    args = []

    def key(name: str) -> str:
        return _str(name).replace("%", "%%") + ":"

    def leaf(path: str) -> str:
        args.append(f"{formats[_leaf_type(path)]}(s.{path})")  # in template order
        return "%s"

    def group(path: str, members: tuple) -> str:
        return "{" + ",".join(key(m) + leaf(f"{path}.{m}") for m in members) + "}"

    items = [key(k) + (leaf(path) if members is None else group(path, members)) for k, path, members in _WIRE_LAYOUT]
    namespace = {"_TEMPLATE": "{" + ",".join(items) + "}", "_float": float.__repr__, "_int": int.__repr__, "_str": _str}
    exec(f"def snapshot_text(s):\n    return _TEMPLATE % ({', '.join(args)})", namespace)
    return namespace["snapshot_text"]


snapshot_text = _text_encoder()


def encode_snapshot(s: TelemetrySnapshot) -> bytes:
    """Serialize a snapshot to canonical UTF-8 JSON bytes.

    Deterministic: fixed key order, compact separators, shortest round-trip
    decimal form for floats.  Re-validates before encoding so a snapshot
    mutated through non-public means is caught here.
    """
    s.validate()
    return snapshot_text(s).encode()


def _check_keys(obj: dict, expected: tuple, where: str) -> None:
    present = set(obj)
    for key in expected:
        if key not in present:
            raise SchemaError(where + key, "missing field")
    for key in obj:
        if key not in expected:
            raise SchemaError(where + key, "unknown field")


def _as_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(where, "must be a JSON object")
    return value


def decode_snapshot(data) -> TelemetrySnapshot:
    """Parse and validate canonical snapshot bytes.

    Inverse of :func:`encode_snapshot` for all valid snapshots.  Rejects
    unknown keys, wrong types, and any invariant violation.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("invalid UTF-8", e.start) from None
    else:
        text = data
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, len(text[: e.pos].encode("utf-8"))) from None
    return snapshot_from_wire(obj)


_PLATFORM_KINDS = {kind.value: kind for kind in PlatformKind}
#: ``(key, dataclass, member keys)`` per snapshot field after the device, in
#: field order; an int field has ``None`` for both.
_AFTER_DEVICE = tuple(
    (name, hint, tuple(f.name for f in fields(hint))) if issubclass(hint, _Metrics) else (name, None, None)
    for name, hint in _SNAPSHOT_FIELDS[1:]
)


def snapshot_from_wire(obj) -> TelemetrySnapshot:
    """Validate an already-parsed wire document against the snapshot schema.

    A document whose keys come in wire order at both levels is checked and
    built straight through; any other document, and any that fails a check
    there, goes through the reference path, which raises the error.
    """
    if type(obj) is dict and tuple(obj) == TOP_KEYS:
        try:
            return _canonical_from_wire(obj)
        except TelemetryError:
            pass
    return _reference_from_wire(obj)


def _canonical_from_wire(top: dict) -> TelemetrySnapshot:
    """Build the snapshot of a document with its keys in wire order.

    Builds the objects as their ``__init__`` would and runs the same
    ``__post_init__`` checks; raises :class:`SchemaError` for anything the
    reference path must judge.
    """
    device_id, kind = _device_values(top)
    kind = _PLATFORM_KINDS.get(kind) if type(kind) is str else None
    if kind is None or type(device_id) is not str or not DEVICE_ID_RE.fullmatch(device_id):
        raise SchemaError("$", "not canonical")
    device = object.__new__(DeviceIdentity)
    device.__dict__.update(zip(_DEVICE_KEYS, (device_id, kind)))
    snapshot = object.__new__(TelemetrySnapshot)
    values = snapshot.__dict__
    values["device"] = device
    for key, cls, members in _AFTER_DEVICE:
        value = top[key]
        if cls is not None:
            if type(value) is not dict or tuple(value) != members:
                raise SchemaError(key, "not canonical")
            group = object.__new__(cls)
            group.__dict__.update(value)
            group.__post_init__()
            value = group
        values[key] = value
    snapshot.validate()
    return snapshot


def _reference_from_wire(obj) -> TelemetrySnapshot:
    """Check keys, then construct through the dataclasses; the error of record."""
    top = _as_object(obj, "$")
    _check_keys(top, TOP_KEYS, "")
    for key, _, members in _GROUPS:
        _check_keys(_as_object(top[key], key), members, key + ".")
    args = {"device": DeviceIdentity(*_device_values(top))}
    for key in _INT_KEYS:
        args[key] = top[key]
    for key, cls, _ in _GROUPS:
        args[key] = cls(**top[key])
    return TelemetrySnapshot(**args)
