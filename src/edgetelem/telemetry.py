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
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from operator import attrgetter, itemgetter
from typing import get_args, get_type_hints

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
    "bounded",
    "check_bounds",
    "from_doc",
    "to_doc",
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


def _in_range(field: str, v, ge, gt, le, lt):
    if ge is not None and v < ge:
        raise ValidationError(field, f"must be >= {ge}, got {v}")
    if gt is not None and v <= gt:
        raise ValidationError(field, f"must be > {gt}, got {v}")
    if le is not None and v > le:
        raise ValidationError(field, f"must be <= {le}, got {v}")
    if lt is not None and v >= lt:
        raise ValidationError(field, f"must be < {lt}, got {v}")
    return v


def _as_float(field: str, value, ge=None, gt=None, le=None, lt=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, "must be a real number")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        raise ValidationError(field, "out of float range") from None
    if not math.isfinite(v):
        raise ValidationError(field, "must be finite")
    return _in_range(field, v, ge, gt, le, lt)


def _as_int(field: str, value, ge=None, gt=None, le=None, lt=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, "must be an integer")
    return _in_range(field, value, ge, gt, le, lt)


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


def bounded(default=MISSING, *, ge=None, gt=None, le=None, lt=None):
    """A numeric dataclass field whose bounds :func:`check_bounds` checks on construction."""
    return field(default=default, metadata={"bounds": (ge, gt, le, lt)})


@cache
def _bounded_fields(cls) -> tuple:
    """``(name, float or int, optional, ge, gt, le, lt)`` per :func:`bounded` field of ``cls``.

    A field is annotated with its type, or with ``type | None`` if optional.
    """
    hints = get_type_hints(cls)
    rows = []
    for f in fields(cls):
        if "bounds" in f.metadata:
            args = get_args(hints[f.name])
            rows.append((f.name, args[0] if args else hints[f.name], bool(args), *f.metadata["bounds"]))
    return tuple(rows)


def _in_bounds(v: str, ge, gt, le, lt) -> str:
    """The condition that the number named ``v`` is finite and within bounds."""
    bounds = ((">=", ge), (">", gt), ("<=", le), ("<", lt))
    terms = [f"{v} {op} {bound!r}" for op, bound in bounds if bound is not None]
    # A bound on each side makes the value finite; every comparison is false for NaN.
    if ge is None and gt is None:
        terms.append(f"{v} > _NINF")
    if le is None and lt is None:
        terms.append(f"{v} < _INF")
    return " and ".join(terms)


def _compile(source: str, name: str, **names):
    """The function ``name`` that ``source`` defines, with these names global to it.

    Every generated function of the package is built here.
    """
    namespace = {"_INF": math.inf, "_NINF": -math.inf, "_as_float": _as_float, "_as_int": _as_int, "_set": _set}
    namespace.update(names)
    exec(source, namespace)
    return namespace[name]


@cache
def _bounds_checker(cls):
    """Generate the function that checks the :func:`bounded` fields of a ``cls`` instance.

    Per field, a value of its exact type within bounds (a float only if
    finite) passes inline, as does None in an optional field; any other value
    goes to :func:`_as_float` or :func:`_as_int`, which raise the message
    (the first converts an int to a float).
    """
    lines = ["def check(self):"]
    for name, typ, optional, ge, gt, le, lt in _bounded_fields(cls):
        none = " or v is None" if optional else ""
        lines += [
            f"    v = self.{name}",
            f"    if not (type(v) is {typ.__name__} and {_in_bounds('v', ge, gt, le, lt)}{none}):",
            f"        _set(self, {name!r}, _as_{typ.__name__}({name!r}, v, {ge!r}, {gt!r}, {le!r}, {lt!r}))",
        ]
    lines.append("    pass")  # no such field
    return _compile("\n".join(lines), "check")


def check_bounds(obj) -> None:
    """Check each :func:`bounded` field of the dataclass ``obj``: a config's ``__post_init__``.

    A failure raises :class:`ValidationError` named by the field, and a float
    field is stored as a float.
    """
    _bounds_checker(type(obj))(obj)


class _Metrics:
    """Base of the snapshot's metric groups: a frozen dataclass whose
    :func:`bounded` fields :func:`check_bounds` checks, and whose ``_check``
    holds its checks across fields."""

    def __post_init__(self):
        check_bounds(self)
        self._check()

    def _check(self):
        pass


@dataclass(frozen=True)
class AppMetrics(_Metrics):
    """Application-level metrics: per-frame latency and throughput."""

    ee_latency_ms: float = bounded(gt=0.0)  # end-to-end latency per frame, milliseconds
    fps: float = bounded(ge=0.0)

    def _check(self):
        if self.fps > 0:
            derived = 1000.0 / self.ee_latency_ms
            if abs(self.fps - derived) / self.fps > FPS_COHERENCE_SLACK:
                raise ValidationError(
                    "fps",
                    f"{self.fps} deviates more than {FPS_COHERENCE_SLACK:.0%} "
                    f"from 1000/ee_latency_ms = {derived:.6g}",
                )


@dataclass(frozen=True)
class ModelMetrics(_Metrics):
    """Accelerator and memory utilization of the active AI model.

    ``model_efficiency`` is carried as reported by the producer; it can only
    be cross-checked where the active model profile is known.
    """

    accel_utilization: float = bounded(ge=0.0, le=1.0)
    mem_throughput_gbps: float = bounded(ge=0.0)
    cpu_utilization: float = bounded(ge=0.0, le=1.0)
    mem_utilization: float = bounded(ge=0.0, le=1.0)
    model_efficiency: float = bounded(ge=0.0)
    model_id: str

    def _check(self):
        _as_nonempty_str("model_id", self.model_id)


@dataclass(frozen=True)
class EnergyMetrics(_Metrics):
    """Whole-platform power draw and derived energy efficiency."""

    power_w: float = bounded(gt=0.0)
    temp_c: float = bounded()
    fps_per_watt: float = bounded(ge=0.0)


@dataclass(frozen=True)
class NetworkMetrics(_Metrics):
    """Cellular modem measurements, constrained to standard LTE reporting ranges."""

    rssi_dbm: float = bounded(ge=-120.0, le=0.0)
    rsrq_db: float = bounded(ge=-25.0, le=0.0)
    rsrp_dbm: float = bounded(ge=-140.0, le=-40.0)
    modem_temp_c: float = bounded()
    dl_mbps: float = bounded(ge=0.0)
    ul_mbps: float = bounded(ge=0.0)


@dataclass(frozen=True)
class ModelProfile:
    """Deployable AI-model descriptor.

    ``workload_gops`` is the compute cost of one frame; ``base_latency_ms``
    the calibrated end-to-end latency at maximum clock.  ``accel_utilization``
    is the nominal accelerator duty the model sustains, used by the platform
    power model.
    """

    model_id: str
    workload_gops: float = bounded(gt=0.0)
    base_latency_ms: float = bounded(gt=0.0)
    artifact_digest: str
    artifact_size_bytes: int = bounded(gt=0)
    accel_utilization: float = bounded(1.0, ge=0.0, le=1.0)

    def __post_init__(self):
        _as_nonempty_str("model_id", self.model_id)
        if not SHA256_HEX_RE.fullmatch(_as_str("artifact_digest", self.artifact_digest)):
            raise ValidationError("artifact_digest", "must be 64 lowercase hex chars")
        check_bounds(self)


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
        self._check_fields()
        self._check_fps_per_watt()

    def validate(self) -> None:
        """Re-run every check construction ran, the metric groups' own included.

        Catches a snapshot mutated through non-public means, such as a NaN
        set with ``object.__setattr__``.
        """
        self._check_fields()
        for name, _, _ in _GROUPS:
            getattr(self, name).__post_init__()
        self._check_fps_per_watt()

    def _check_fields(self) -> None:
        if not isinstance(self.device, DeviceIdentity):
            raise ValidationError("device", "must be a DeviceIdentity")
        _as_int("seq", self.seq, ge=0)
        _as_int("device_time_ms", self.device_time_ms, ge=0)
        for name, typ, _ in _GROUPS:
            if not isinstance(getattr(self, name), typ):
                raise ValidationError(name, f"must be a {typ.__name__}")

    def _check_fps_per_watt(self) -> None:
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


# --- typed JSON documents: configs and the action message ----------------------

@cache
def _doc_fields(cls) -> dict:
    """``name -> (type, required)`` per dataclass field, in declaration order."""
    required = {f.name: f.default is MISSING and f.default_factory is MISSING for f in fields(cls)}
    return {name: (typ, required[name]) for name, typ in _typed_fields(cls)}


#: What a JSON value must be for each plain annotation; a bool is no int.
_PLAIN = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"), dict: (dict, "an object")}


def _doc_value(typ, value, path: str, error):
    """``value`` of a parsed JSON document, checked against the annotation ``typ``."""
    where = path or "document"
    args = get_args(typ)
    if type(None) in args:  # X | None
        return None if value is None else _doc_value(args[0], value, path, error)
    plain = _PLAIN.get(typ)
    if plain is not None:
        if isinstance(value, bool) or not isinstance(value, plain[0]):
            raise error(f"{where}: must be {plain[1]}")
        if typ is not float:
            return value
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            raise error(f"{where}: out of float range") from None
        if not math.isfinite(value):
            raise error(f"{where}: must be finite")
        return value
    if isinstance(typ, type) and issubclass(typ, Enum):
        try:
            return typ(value)
        except ValueError:
            raise error(f"{where}: must be one of {', '.join(repr(m.value) for m in typ)}") from None
    if is_dataclass(typ):
        if not isinstance(value, dict):
            raise error(f"{where}: must be an object")
        table = _doc_fields(typ)
        prefix = f"{path}." if path else ""
        for key in value:
            if key not in table:
                raise error(f"{prefix}{key}: unknown key")
        kwargs = {}
        for name, (hint, required) in table.items():
            if name in value:
                kwargs[name] = _doc_value(hint, value[name], prefix + name, error)
            elif required:
                raise error(f"{prefix}{name}: required key missing")
        try:
            return typ(**kwargs)
        except ValidationError as e:  # a field's own check: its name leads the message
            raise error(prefix + str(e)) from None
        except ValueError as e:
            if not path:
                raise
            raise error(f"{path}: {e}") from None
    if not isinstance(value, list):  # tuple[X, ...], the one annotation left
        raise error(f"{where}: must be an array")
    return tuple(_doc_value(args[0], v, f"{path}[{i}]", error) for i, v in enumerate(value))


def from_doc(cls, doc, error):
    """An instance of the frozen dataclass ``cls`` from a parsed JSON object.

    The dataclass is the schema: a key must name a field, a value must match
    the field's annotation (``float`` also takes an int), and an absent key
    takes the field's default.  A failed check raises ``error(message)``
    with the message led by the key path (``rules[0].cooldown_ticks: ...``).
    A bound that :func:`check_bounds` rejects is raised the same way, led by
    its field's path (``bandwidth.window: must be >= 1, got 0``).  Any other
    ``ValueError`` of a nested dataclass is raised led by its path; the
    top-level one's propagates as it is.
    """
    return _doc_value(cls, doc, "", error)


def _to_doc_value(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (int, float, str, dict)):
        return value
    if isinstance(value, tuple):
        return [_to_doc_value(v) for v in value]
    return to_doc(value)  # a dataclass, the one annotation left


def to_doc(obj) -> dict:
    """The JSON object :func:`from_doc` reads back: fields in order, ``None`` left out."""
    doc = {}
    for name in _doc_fields(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            doc[name] = _to_doc_value(value)
    return doc


_SNAPSHOT_FIELDS = _typed_fields(TelemetrySnapshot)


def _wire_layout():
    """``(key, attribute path, type, members)`` per top-level wire key, in order.

    ``type`` is a leaf's ``float``, ``int`` or ``str``, or a metric group's
    class; ``members`` is None for a leaf and ``(member, leaf type)`` per
    field for a group.  The order is the dataclass field order: the device
    identity's fields sit at the top level, each metric group is a nested
    object.
    """
    for name, hint in _SNAPSHOT_FIELDS:
        if hint is DeviceIdentity:
            for key, typ in _typed_fields(hint):
                if issubclass(typ, Enum):  # laid out by its value, a str
                    yield key, f"{name}.{key}.value", str, None
                else:
                    yield key, f"{name}.{key}", typ, None
        elif issubclass(hint, _Metrics):
            yield name, name, hint, _typed_fields(hint)
        else:
            yield name, name, hint, None


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
TOP_KEYS = tuple(key for key, *_ in _WIRE_LAYOUT)

#: Every leaf of the wire document as a key path, in wire order.
WIRE_PATHS = tuple(
    path
    for key, _, _, members in _WIRE_LAYOUT
    for path in ([(key,)] if members is None else [(key, m) for m, _ in members])
)

#: All dotted numeric paths a feedback rule may reference.
NUMERIC_PATHS = (
    *((key,) for key in _INT_KEYS),
    *((key, name) for key, cls, _ in _GROUPS for name, *_bounds in _bounded_fields(cls)),
)


def snapshot_to_wire(s: TelemetrySnapshot) -> dict:
    """Build the wire dict with keys in the documented order."""
    # A metric group's instance dict holds exactly its fields, in field
    # order: the generated __init__ sets them so, and the group is frozen.
    wire = {}
    for key, path, _, members in _WIRE_LAYOUT:
        value = attrgetter(path)(s)
        wire[key] = value if members is None else vars(value).copy()
    return wire


#: The reference encoder of the wire dict; :func:`snapshot_text` produces its output.
_ENCODER = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)
_str = json.encoder.encode_basestring


def _text_encoder():
    """Generate ``snapshot_text(s)``, equal to ``_ENCODER.encode(snapshot_to_wire(s))``.

    Returns its ``%`` template, the one statement of the compact layout, and
    the function.  The template holds every key, escaped here once (a key is
    a field name, so it holds no ``%``), and a ``%s`` per leaf.  Each leaf is
    formatted as the C encoder formats it: a float by ``float.__repr__``, an
    int by ``int.__repr__`` and a string by ``encode_basestring``, the escaper
    ``_ENCODER`` uses with ``ensure_ascii=False``.
    """
    formats = {float: "_float", int: "_int", str: "_str"}
    args = []

    def leaf(path: str, typ: type) -> str:
        args.append(f"{formats[typ]}(s.{path})")  # in template order
        return "%s"

    items = []
    for key, path, typ, members in _WIRE_LAYOUT:
        if members is None:
            value = leaf(path, typ)
        else:
            value = "{" + ",".join(f"{_str(m)}:{leaf(f'{path}.{m}', t)}" for m, t in members) + "}"
        items.append(f"{_str(key)}:{value}")
    template = "{" + ",".join(items) + "}"
    source = f"def snapshot_text(s):\n    return _TEMPLATE % ({', '.join(args)})"
    return template, _compile(source, "snapshot_text", _TEMPLATE=template, _float=float.__repr__, _int=int.__repr__, _str=_str)


_TEMPLATE, snapshot_text = _text_encoder()


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


def decode_snapshot(data, *, wire: bool = False) -> TelemetrySnapshot | tuple[TelemetrySnapshot, bytes | None]:
    """Parse and validate canonical snapshot bytes.

    Inverse of :func:`encode_snapshot` for all valid snapshots.  Rejects
    unknown keys, wrong types, and any invariant violation, and raises only
    :class:`TelemetryError`.  Bytes that :data:`SNAPSHOT_PATTERN` matches are
    built from their tokens; any other input, and any whose tokens fail a
    check, goes through ``json.loads`` and the reference path, which raises
    the error.

    With ``wire=True`` it returns ``(snapshot, payload)``: ``payload`` is the
    input as bytes when the pattern path built the snapshot, so it is one
    line of compact JSON that the pattern matches, and None otherwise.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = bytes(data)
        match = _SNAPSHOT_RE.fullmatch(data)
        if match is not None:
            snapshot = snapshot_from_tokens(match.groups())
            if snapshot is not None:
                return (snapshot, data) if wire else snapshot
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError("invalid UTF-8", e.start) from None
    else:
        text = data
    snapshot = _reference_from_wire(_loads(text))
    return (snapshot, None) if wire else snapshot


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8", "surrogatepass"))


def _loads(text: str):
    """``json.loads``, with every way it fails as a :class:`ParseError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, _byte_offset(text, e.pos)) from None
    except ValueError:  # an integer literal above the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        literal = re.search(r"(?<![\w.+-])-?[0-9]{%d}" % (limit + 1), text)
        raise ParseError(f"integer literal longer than {limit} digits", _byte_offset(text, literal.start())) from None
    except RecursionError:
        raise ParseError("nested too deeply", 0) from None


#: ``(group key, member)`` of each string field of a metric group.
_GROUP_STRINGS = tuple(
    (key, member) for key, _, _, members in _WIRE_LAYOUT if members is not None for member, typ in members if typ is str
)


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
    snapshot = TelemetrySnapshot(**args)
    # JSON's \u escapes can spell a lone surrogate, which no UTF-8 encoder takes.
    for key, member in _GROUP_STRINGS:
        try:
            getattr(getattr(snapshot, key), member).encode()
        except UnicodeEncodeError:
            raise ValidationError(member, "must not contain a lone surrogate") from None
    return snapshot


# --- generated decoder of compact documents ----------------------------------

#: Token patterns of :data:`SNAPSHOT_PATTERN`.  Each is bounded in length, so
#: matching costs the same on any input; a longer token goes to ``json.loads``.
#: A non-negative int of at most 18 digits.
INT_TOKEN = rb"(0|[1-9][0-9]{0,17})"
#: A JSON number with a fraction or an exponent, which ``json.loads`` also
#: reads with ``float``, no longer than ``repr``'s longest float,
#: ``-2.2250738585072014e-308``.  An int literal goes to ``json.loads``: it
#: reads ``-0`` as the int 0, which a float field takes as 0.0, not -0.0.
_FLOAT_TOKEN = rb"(?=[-+.0-9eE]{1,24}[,}])(-?(?:0|[1-9][0-9]{0,23})(?:\.[0-9]{1,23}(?:[eE][-+]?[0-9]{1,3})?|[eE][-+]?[0-9]{1,3}))"
#: A non-empty string of at most 256 characters, each a byte other than a
#: quote, a backslash or a control character, or one JSON escape.
_STR_TOKEN = rb'"((?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9A-Fa-f]{4}){1,256})"'


def _text(token: bytes) -> str:
    """The string of a string token, as ``json.loads`` reads it.

    A lone surrogate, which a ``\\u`` escape can spell, raises
    ``UnicodeEncodeError`` as the reference path rejects it.
    """
    text = token.decode()
    if "\\" in text:
        text = json.decoder.scanstring(text + '"', 0)[0]
        text.encode()
    return text


def _template_pattern(template: bytes, tokens) -> bytes:
    """The pattern of what ``template % args`` writes: the template's text
    escaped, and the next of ``tokens`` in place of each ``%s`` or ``%d``."""
    text = re.split(b"%[ds]", template)
    return re.escape(text[0]) + b"".join(token + re.escape(t) for token, t in zip(tokens, text[1:], strict=True))


def _tokens_decoder():
    """Generate the compact snapshot pattern and the builder of its tokens.

    The pattern is :func:`snapshot_text`'s template with one token per leaf,
    so it matches a snapshot as that writes it, keys in wire order and no
    whitespace, and captures one token per leaf.  ``build(*tokens)`` converts
    the tokens with ``float``, ``int`` and strict UTF-8 decoding, runs every
    check construction runs, and builds the objects with their instance dicts
    in field order.  A failed check, and a string that is not UTF-8, raise a
    ``ValueError``.
    """
    tokens, params, lines = [], [], []
    namespace = {"_new": object.__new__, "_text": _text}

    def leaf(token: bytes) -> str:
        tokens.append(token)  # in field order, the template's order
        params.append(f"t{len(params)}")
        return params[-1]

    def instance(var: str, cls, items: list) -> None:
        namespace[cls.__name__] = cls
        values = ", ".join(f"{name!r}: {value}" for name, value in items)
        lines.append(f"    {var} = _new({cls.__name__})")
        lines.append(f"    _set({var}, '__dict__', {{{values}}})")

    snapshot_items, floats = [], []
    for name, hint in _SNAPSHOT_FIELDS:
        if hint is DeviceIdentity:  # its fields sit at the top level
            items = []
            for member, typ in _typed_fields(hint):
                if issubclass(typ, Enum):  # the alternation is the check
                    values = {_str(kind.value)[1:-1].encode(): kind for kind in typ}
                    namespace[f"_{typ.__name__}"] = values
                    t = leaf(b'"(' + b"|".join(map(re.escape, values)) + b')"')
                    items.append((member, f"_{typ.__name__}[{t}]"))
                else:  # the device id pattern is the check
                    t = leaf(b'"(' + DEVICE_ID_RE.pattern.encode() + b')"')
                    items.append((member, f"{t}.decode()"))
            instance(name, hint, items)
            snapshot_items.append((name, name))
        elif hint is int:
            snapshot_items.append((name, f"int({leaf(INT_TOKEN)})"))
        else:
            bounds = {member: b for member, _, _, *b in _bounded_fields(hint)}
            items, checks = [], []
            for member in (f.name for f in fields(hint)):
                if member in bounds:
                    t = leaf(_FLOAT_TOKEN)
                    floats.append(t)
                    checks.append(_in_bounds(t, *bounds[member]))
                    items.append((member, t))
                else:
                    items.append((member, f"_text({leaf(_STR_TOKEN)})"))
            lines += [f"    if not ({' and '.join(checks)}):", "        raise ValueError"]
            instance(name, hint, items)
            if hint._check is not _Metrics._check:
                lines.append(f"    {name}._check()")
            snapshot_items.append((name, name))
    instance("snapshot", TelemetrySnapshot, snapshot_items)
    lines += ["    snapshot._check_fps_per_watt()", "    return snapshot"]
    lines.insert(0, f"    {', '.join(floats)} = map(float, ({', '.join(floats)}))")  # one C loop, not a call per field
    builder = _compile(f"def build({', '.join(params)}):\n" + "\n".join(lines), "build", **namespace)
    return _template_pattern(_TEMPLATE.encode(), tokens), builder


#: The pattern of a compact snapshot with its keys in wire order.
SNAPSHOT_PATTERN, _build_from_tokens = _tokens_decoder()
_SNAPSHOT_RE = re.compile(SNAPSHOT_PATTERN)


def snapshot_from_tokens(tokens) -> TelemetrySnapshot | None:
    """The snapshot of the tokens :data:`SNAPSHOT_PATTERN` captured, or None
    if it fails a check: the reference path then judges the input."""
    try:
        return _build_from_tokens(*tokens)
    except ValueError:
        return None
