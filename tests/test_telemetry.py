import copy
import inspect
import json
import math
import random
import traceback
from dataclasses import is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_snapshot, random_snapshot
from edgetelem import cloud, telemetry
from edgetelem.cloud import RECORD_KEYS, Lake, LakeRecord, Transport, decode_record, encode_record
from edgetelem.telemetry import (
    NUMERIC_PATHS,
    AppMetrics,
    DeviceIdentity,
    EnergyMetrics,
    ModelMetrics,
    NetworkMetrics,
    ParseError,
    SchemaError,
    TelemetryError,
    TelemetrySnapshot,
    ValidationError,
    decode_snapshot,
    encode_snapshot,
    fps_per_watt,
    model_efficiency,
)

GOLDEN = make_snapshot(
    device_id="dev1",
    seq=0,
    device_time_ms=1000,
    latency_ms=25.0,
    fps=40.0,
    power_w=20.0,
    temp_c=45.5,
    accel_utilization=0.5,
    mem_throughput_gbps=10.0,
    cpu_utilization=0.25,
    mem_utilization=0.3,
    model_efficiency=0.7,
    rssi_dbm=-70.0,
    rsrq_db=-10.0,
    rsrp_dbm=-95.0,
    modem_temp_c=38.0,
    dl_mbps=12.5,
    ul_mbps=1.5,
)

GOLDEN_BYTES = (
    b'{"device_id":"dev1","platform_kind":"SimulatedDPU","seq":0,"device_time_ms":1000,'
    b'"app":{"ee_latency_ms":25.0,"fps":40.0},'
    b'"model":{"accel_utilization":0.5,"mem_throughput_gbps":10.0,"cpu_utilization":0.25,'
    b'"mem_utilization":0.3,"model_efficiency":0.7,"model_id":"yolov3"},'
    b'"energy":{"power_w":20.0,"temp_c":45.5,"fps_per_watt":2.0},'
    b'"network":{"rssi_dbm":-70.0,"rsrq_db":-10.0,"rsrp_dbm":-95.0,"modem_temp_c":38.0,'
    b'"dl_mbps":12.5,"ul_mbps":1.5}}'
)


class TestModelEfficiency:
    def test_zero_fps_gives_zero(self):
        assert model_efficiency(0.0, 65.63, 1000.0) == 0.0

    def test_hand_arithmetic(self):
        # 20 fps against a peak frame rate of 1000/50 = 20 -> exactly 1.0
        assert model_efficiency(20.0, 50.0, 1000.0) == pytest.approx(1.0, abs=1e-12)

    def test_zcu102_operating_point(self):
        assert model_efficiency(1000.0 / 29.4, 65.63, 4460.0) == pytest.approx(0.5005, abs=1e-4)

    @pytest.mark.parametrize("fps,workload,peak", [(1.0, 0.0, 10.0), (1.0, -2.0, 10.0), (1.0, 5.0, 0.0), (-1.0, 5.0, 10.0)])
    def test_domain_errors(self, fps, workload, peak):
        with pytest.raises(ValueError):
            model_efficiency(fps, workload, peak)

    @given(
        fps=st.floats(0.0, 1e4),
        k=st.floats(0.0, 1e3),
        workload=st.floats(1e-3, 1e4),
        peak=st.floats(1e-3, 1e6),
    )
    def test_linear_in_fps(self, fps, k, workload, peak):
        lhs = model_efficiency(k * fps, workload, peak)
        rhs = k * model_efficiency(fps, workload, peak)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)

    @given(
        fps=st.floats(0.0, 1e4),
        c=st.floats(1e-3, 1e3),
        workload=st.floats(1e-3, 1e4),
        peak=st.floats(1e-3, 1e6),
    )
    def test_invariant_under_joint_scaling(self, fps, c, workload, peak):
        lhs = model_efficiency(fps, c * workload, c * peak)
        rhs = model_efficiency(fps, workload, peak)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


class TestFpsPerWatt:
    def test_zero_fps(self):
        assert fps_per_watt(0.0, 10.0) == 0.0

    def test_zcu102_yolov3(self):
        assert fps_per_watt(34.01, 22.98) == pytest.approx(1.48, abs=5e-3)

    def test_xavier_yolov3(self):
        assert fps_per_watt(8.33, 27.78) == pytest.approx(0.30, abs=5e-3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fps_per_watt(10.0, 0.0)
        with pytest.raises(ValueError):
            fps_per_watt(-1.0, 5.0)

    @given(fps=st.floats(0.0, 1e5), power=st.floats(1e-3, 1e4))
    def test_inverse(self, fps, power):
        assert math.isclose(fps_per_watt(fps, power) * power, fps, rel_tol=1e-12, abs_tol=1e-12)


class TestValidation:
    def test_empty_device_id_names_field(self):
        with pytest.raises(ValidationError, match="device_id"):
            make_snapshot(device_id="")

    def test_device_id_charset(self):
        with pytest.raises(ValidationError, match="device_id"):
            DeviceIdentity(device_id="bad id!")

    def test_fps_latency_coherence(self):
        # 35 fps against 33.3 ms latency deviates by ~14% > the 5% slack
        with pytest.raises(ValidationError, match="fps"):
            AppMetrics(ee_latency_ms=1000.0 / 30.0, fps=35.0)

    def test_zero_fps_skips_coherence(self):
        AppMetrics(ee_latency_ms=5000.0, fps=0.0)

    def test_fps_per_watt_must_match(self):
        with pytest.raises(ValidationError, match="fps_per_watt"):
            make_snapshot(fps=40.0, latency_ms=25.0, power_w=20.0).__class__(
                device=GOLDEN.device,
                seq=0,
                device_time_ms=0,
                app=GOLDEN.app,
                model=GOLDEN.model,
                energy=GOLDEN.energy.__class__(power_w=20.0, temp_c=40.0, fps_per_watt=3.0),
                network=GOLDEN.network,
            )

    def test_utilization_range(self):
        with pytest.raises(ValidationError, match="accel_utilization"):
            make_snapshot(accel_utilization=1.2)

    def test_non_integer_seq_rejected(self):
        with pytest.raises(ValidationError, match="seq"):
            make_snapshot(seq=1.5)


class TestEncoding:
    def test_golden_bytes(self):
        assert encode_snapshot(GOLDEN) == GOLDEN_BYTES

    def test_key_order(self):
        pairs = json.loads(encode_snapshot(GOLDEN), object_pairs_hook=list)
        assert [k for k, _ in pairs] == [
            "device_id", "platform_kind", "seq", "device_time_ms", "app", "model", "energy", "network",
        ]

    def test_fps_shortest_roundtrip_form(self):
        snap = make_snapshot(fps=34.01, latency_ms=1000.0 / 34.01)
        assert b'"fps":34.01' in encode_snapshot(snap)

    def test_deterministic(self):
        assert encode_snapshot(GOLDEN) == encode_snapshot(GOLDEN)

    def test_numeric_paths(self):
        assert NUMERIC_PATHS == (
            ("seq",), ("device_time_ms",),
            ("app", "ee_latency_ms"), ("app", "fps"),
            ("model", "accel_utilization"), ("model", "mem_throughput_gbps"), ("model", "cpu_utilization"),
            ("model", "mem_utilization"), ("model", "model_efficiency"),
            ("energy", "power_w"), ("energy", "temp_c"), ("energy", "fps_per_watt"),
            ("network", "rssi_dbm"), ("network", "rsrq_db"), ("network", "rsrp_dbm"),
            ("network", "modem_temp_c"), ("network", "dl_mbps"), ("network", "ul_mbps"),
        )


class TestDecoding:
    def test_inverse_of_encode(self):
        assert decode_snapshot(encode_snapshot(GOLDEN)) == GOLDEN

    def test_empty_object_names_missing_field(self):
        with pytest.raises(SchemaError, match="device_id"):
            decode_snapshot(b"{}")

    def test_unknown_key_rejected(self):
        doc = json.loads(GOLDEN_BYTES)
        doc["extra"] = 1
        with pytest.raises(SchemaError, match="extra"):
            decode_snapshot(json.dumps(doc).encode())

    def test_nested_unknown_key_rejected(self):
        doc = json.loads(GOLDEN_BYTES)
        doc["app"]["bogus"] = 1
        with pytest.raises(SchemaError, match="app.bogus"):
            decode_snapshot(json.dumps(doc).encode())

    @pytest.mark.parametrize(
        "group, key, value, message",
        [
            ("app", "ee_latency_ms", 0.0, "must be > 0.0, got 0.0"),
            ("app", "fps", -1.0, "must be >= 0.0, got -1.0"),
            ("model", "accel_utilization", 1.5, "must be <= 1.0, got 1.5"),
            ("model", "mem_throughput_gbps", -1.0, "must be >= 0.0, got -1.0"),
            ("model", "cpu_utilization", -0.5, "must be >= 0.0, got -0.5"),
            ("model", "mem_utilization", 2.0, "must be <= 1.0, got 2.0"),
            ("model", "model_efficiency", -1.0, "must be >= 0.0, got -1.0"),
            ("model", "model_id", "", "must be non-empty"),
            ("model", "model_id", 7, "must be a string"),
            ("energy", "power_w", 0.0, "must be > 0.0, got 0.0"),
            ("energy", "temp_c", "hot", "must be a real number"),
            ("energy", "fps_per_watt", -1.0, "must be >= 0.0, got -1.0"),
            ("network", "rssi_dbm", -121.0, "must be >= -120.0, got -121.0"),
            ("network", "rsrq_db", 0.5, "must be <= 0.0, got 0.5"),
            ("network", "rsrp_dbm", -39.0, "must be <= -40.0, got -39.0"),
            ("network", "rsrp_dbm", -141.0, "must be >= -140.0, got -141.0"),
            ("network", "modem_temp_c", True, "must be a real number"),
            ("network", "dl_mbps", -1.0, "must be >= 0.0, got -1.0"),
            ("network", "ul_mbps", -1.0, "must be >= 0.0, got -1.0"),
        ],
    )
    def test_field_bounds_messages(self, group, key, value, message):
        doc = json.loads(GOLDEN_BYTES)
        doc[group][key] = value
        with pytest.raises(ValidationError) as exc:
            decode_snapshot(json.dumps(doc).encode())
        assert exc.value.field == key
        assert str(exc.value) == f"{key}: {message}"

    def test_rssi_out_of_range(self):
        doc = json.loads(GOLDEN_BYTES)
        doc["network"]["rssi_dbm"] = 5.0
        with pytest.raises(ValidationError, match="rssi_dbm"):
            decode_snapshot(json.dumps(doc).encode())

    def test_malformed_json_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            decode_snapshot(b'{"device_id": }')
        assert exc.value.offset >= 0

    def test_invalid_utf8(self):
        with pytest.raises(ParseError):
            decode_snapshot(b"\xff\xfe{}")

    def test_non_object_top_level(self):
        with pytest.raises(SchemaError):
            decode_snapshot(b"[1,2,3]")


@st.composite
def snapshots(draw):
    latency = draw(st.floats(0.5, 1e5, allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        fps = 0.0
    else:
        jitter = draw(st.floats(-0.04, 0.04))
        fps = (1000.0 / latency) * (1.0 + jitter)
    power = draw(st.floats(min_value=1e-3, max_value=1e4))
    device_id = draw(st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True))
    model_id = draw(st.text(min_size=1, max_size=16))
    return make_snapshot(
        device_id=device_id,
        seq=draw(st.integers(0, 2**40)),
        device_time_ms=draw(st.integers(0, 2**45)),
        latency_ms=latency,
        fps=fps,
        power_w=power,
        temp_c=draw(st.floats(-50.0, 150.0)),
        accel_utilization=draw(st.floats(0.0, 1.0)),
        mem_throughput_gbps=draw(st.floats(0.0, 1e4)),
        cpu_utilization=draw(st.floats(0.0, 1.0)),
        mem_utilization=draw(st.floats(0.0, 1.0)),
        model_efficiency=draw(st.floats(0.0, 1e4)),
        model_id=model_id,
        rssi_dbm=draw(st.floats(-120.0, 0.0)),
        rsrq_db=draw(st.floats(-25.0, 0.0)),
        rsrp_dbm=draw(st.floats(-140.0, -40.0)),
        modem_temp_c=draw(st.floats(-40.0, 120.0)),
        dl_mbps=draw(st.floats(0.0, 1e4)),
        ul_mbps=draw(st.floats(0.0, 1e4)),
    )


class TestRoundTripProperties:
    @given(snapshots())
    @settings(max_examples=200)
    def test_roundtrip_identity(self, snap):
        assert decode_snapshot(encode_snapshot(snap)) == snap

    @given(snapshots())
    @settings(max_examples=100)
    def test_reencode_is_byte_stable(self, snap):
        raw = encode_snapshot(snap)
        assert encode_snapshot(decode_snapshot(raw)) == raw

    @given(st.binary(max_size=400))
    @settings(max_examples=300)
    def test_fuzzed_bytes_never_crash(self, raw):
        try:
            decode_snapshot(raw)
        except TelemetryError:
            pass

    def test_random_builder_roundtrip(self):
        rng = random.Random(1234)
        for i in range(50):
            snap = random_snapshot(rng, seq=i)
            assert decode_snapshot(encode_snapshot(snap)) == snap


# --- canonical decode against the reference path ------------------------------

ODD_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**64), 2**64),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
GROUPS = [key for key, *_ in telemetry._GROUPS]


def float_bounds(cls) -> list:
    """``(name, ge, gt, le, lt)`` per bounded float field of a metric group."""
    return [(name, *bounds) for name, _, _, *bounds in telemetry._bounded_fields(cls)]


def mutate(doc: dict, data) -> str:
    """Apply one drawn mutation to a wire document; return its JSON text."""
    kind = data.draw(
        st.sampled_from(
            ["none", "reorder_top", "reorder_group", "leaf", "int_float", "bool_float", "nonfinite",
             "extra", "missing", "group_not_object", "fps_incoherent", "not_object"]
        )
    )
    group = doc[data.draw(st.sampled_from(GROUPS))]
    floats = [k for k, v in group.items() if type(v) is float]
    if kind == "reorder_top":
        doc = dict(data.draw(st.permutations(list(doc.items()))))
    elif kind == "reorder_group":
        items = data.draw(st.permutations(list(group.items())))
        group.clear()
        group.update(items)
    elif kind == "leaf":
        path = data.draw(st.sampled_from(telemetry.WIRE_PATHS))
        target = doc if len(path) == 1 else doc[path[0]]
        target[path[-1]] = data.draw(ODD_VALUES)
    elif kind == "int_float":
        key = data.draw(st.sampled_from(floats))
        group[key] = int(group[key]) if math.isfinite(group[key]) else 0
    elif kind == "bool_float":
        group[data.draw(st.sampled_from(floats))] = data.draw(st.booleans())
    elif kind == "nonfinite":
        group[data.draw(st.sampled_from(floats))] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "extra":
        target = data.draw(st.sampled_from([doc, group]))
        target[data.draw(st.text(min_size=1, max_size=12))] = 1.0
    elif kind == "missing":
        target = data.draw(st.sampled_from([doc, group]))
        del target[data.draw(st.sampled_from(list(target)))]
    elif kind == "group_not_object":
        doc[data.draw(st.sampled_from(GROUPS))] = data.draw(ODD_VALUES.filter(lambda v: not isinstance(v, dict)))
    elif kind == "fps_incoherent":
        doc["app"]["fps"] = doc["app"]["fps"] * data.draw(st.sampled_from([0.5, 0.96, 1.04, 2.0])) + 1.0
    elif kind == "not_object":
        return json.dumps(list(doc))
    return json.dumps(doc)


def outcome(decode, arg):
    """``("ok", value, canonical bytes)`` or ``(exception type, message)``."""
    try:
        value = decode(arg)
    except Exception as e:
        return type(e), str(e)
    snapshot = getattr(value, "snapshot", value)
    return "ok", value, encode_snapshot(snapshot)


def reference_decode(text: str) -> TelemetrySnapshot:
    return telemetry._reference_from_wire(json.loads(text))


def reference_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key}: must be an integer")
    return value


def reference_record(line: bytes) -> LakeRecord:
    """decode_record with the snapshot built by the reference path."""
    doc = json.loads(line)
    if set(doc) != set(RECORD_KEYS):
        raise ValueError(f"unexpected record keys {sorted(doc)}")
    return LakeRecord(
        snapshot=telemetry._reference_from_wire(doc["snapshot"]),
        ingest_time_ms=reference_int("ingest_time_ms", doc["ingest_time_ms"]),
        transport=Transport(doc["transport"]),
        record_id=reference_int("record_id", doc["record_id"]),
    )


class TestCanonicalDecodeMatchesReference:
    @given(snapshots(), st.data())
    @settings(max_examples=400)
    def test_mutated_documents(self, snap, data):
        text = mutate(json.loads(encode_snapshot(snap)), data)
        assert outcome(decode_snapshot, text.encode()) == outcome(reference_decode, text)

    @given(snapshots())
    @settings(max_examples=100)
    def test_valid_documents_take_the_canonical_path(self, snap):
        match = telemetry._SNAPSHOT_RE.fullmatch(encode_snapshot(snap))
        assert match is not None
        decoded = telemetry.snapshot_from_tokens(match.groups())
        assert decoded == snap
        assert shape(decoded) == shape(snap)  # snapshot_to_wire and the CSV export read vars() in order

    @given(snapshots(), st.data())
    @settings(max_examples=150)
    def test_decode_record_over_a_lake(self, tmp_path_factory, snap, data):
        lake = Lake(tmp_path_factory.mktemp("lake"))
        for i in range(3):
            lake.append(LakeRecord(snapshot=snap, ingest_time_ms=1000 * i, transport=Transport.PUBSUB, record_id=i))
        [path] = lake._partitions(snap.device.device_id)
        lines = path.read_bytes().splitlines()
        assert lake.scan(snap.device.device_id) == [reference_record(line) for line in lines]
        record = json.loads(lines[0])
        record["snapshot"] = json.loads(mutate(record["snapshot"], data))
        line = json.dumps(record).encode()
        assert outcome(decode_record, line) == outcome(reference_record, line)

    def test_generated_float_checks_match_as_float(self):
        rng = random.Random(7)
        special = [math.nan, math.inf, -math.inf, 0, 1, -1, True, False, None, "1.0", -0.0, 1e308, -1e308, 5e-324]
        for key, cls, _ in telemetry._GROUPS:
            valid = vars(getattr(GOLDEN, key))
            edges = {b for _, *bounds in float_bounds(cls) for b in bounds if b is not None}
            candidates = special + [e + d for e in edges for d in (-1e-9, 0.0, 1e-9)]
            candidates += [rng.uniform(-200.0, 200.0) for _ in range(20)]
            for name, *_ in float_bounds(cls):
                for value in candidates:
                    values = {n: valid[n] for n, *_ in float_bounds(cls)}
                    values[name] = value
                    group = object.__new__(cls)
                    group.__dict__.update(values)
                    expected = dict(values)
                    try:
                        for n, ge, gt, le, lt in float_bounds(cls):
                            expected[n] = telemetry._as_float(n, values[n], ge, gt, le, lt)
                    except ValidationError as e:
                        expected = (type(e), str(e))
                    try:
                        telemetry.check_bounds(group)
                        got = dict(vars(group))
                    except ValidationError as e:
                        got = (type(e), str(e))
                    assert got == expected, (key, name, value)
                    if isinstance(got, dict):
                        assert all(type(v) is float for v in got.values()), (key, name, value)

    def test_int_in_float_field_becomes_a_float(self):
        doc = json.loads(GOLDEN_BYTES)
        doc["app"]["ee_latency_ms"] = 25
        snap = decode_snapshot(json.dumps(doc).encode())
        assert type(snap.app.ee_latency_ms) is float
        assert encode_snapshot(snap) == GOLDEN_BYTES

    def test_group_checks_are_generated_from_the_bounds(self):
        with pytest.raises(ValidationError, match=r"^fps: must be finite$"):
            AppMetrics(ee_latency_ms=25.0, fps=math.inf)
        with pytest.raises(ValidationError, match=r"^ee_latency_ms: must be a real number$"):
            AppMetrics(ee_latency_ms="25", fps=40.0)
        assert AppMetrics(ee_latency_ms=25, fps=40).fps == 40.0


# --- generated text encoder against the reference encoder ------------------------


class Real(float):
    """A float subclass whose repr is not JSON."""

    def __repr__(self):
        return "Real()"


class Count(int):
    """An int subclass whose repr is not JSON."""

    def __repr__(self):
        return "Count()"


#: Characters JSON escapes or that are easy to mishandle: quote, backslash,
#: controls, the JS line separators, a non-BMP character and lone surrogates.
AWKWARD = '"\\\x00\x08\x1f\x7f\x80\u2028\u2029\U0001f600\ud800\udfff%'
MODEL_IDS = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(AWKWARD)), min_size=1, max_size=16)


def reference_text(s: TelemetrySnapshot) -> str:
    return telemetry._ENCODER.encode(telemetry.snapshot_to_wire(s))


def reference_record_bytes(rec: LakeRecord) -> bytes:
    """The record envelope around the reference snapshot text, encoded on its own as the lake encodes it."""
    head = '{"record_id":%d,"ingest_time_ms":%d,"transport":"%s","snapshot":' % (
        rec.record_id, rec.ingest_time_ms, rec.transport.value
    )
    return head.encode("utf-8") + reference_text(rec.snapshot).encode("utf-8") + b"}"


def encoded(encode, arg):
    """The bytes ``encode`` returns, or its exception type and message."""
    try:
        return encode(arg)
    except Exception as e:
        return type(e), str(e)


@st.composite
def odd_typed_snapshots(draw):
    """Valid snapshots built from ints and float subclasses as well as floats."""
    snap = draw(snapshots())
    kwargs = {"model_id": draw(MODEL_IDS)}
    for key, cls, _ in telemetry._GROUPS:
        for name, *_ in float_bounds(cls):
            value = getattr(getattr(snap, key), name)
            form = draw(st.sampled_from(["float", "subclass", "int"]))
            if form == "subclass":
                value = Real(value)
            elif form == "int" and value == int(value):
                value = int(value)
            kwargs[name] = value
    kwargs["latency_ms"] = kwargs.pop("ee_latency_ms")
    del kwargs["fps_per_watt"]  # derived by make_snapshot
    seq = draw(st.integers(0, 2**70))
    return make_snapshot(
        device_id=snap.device.device_id,
        seq=Count(seq) if draw(st.booleans()) else seq,
        device_time_ms=snap.device_time_ms,
        **kwargs,
    )


class TestTextEncoderMatchesReference:
    @given(st.one_of(snapshots(), odd_typed_snapshots()))
    @settings(max_examples=400)
    def test_snapshot_text(self, snap):
        assert telemetry.snapshot_text(snap) == reference_text(snap)

    @given(odd_typed_snapshots())
    @settings(max_examples=300)
    def test_encode_snapshot_bytes_or_error(self, snap):
        def reference(s):
            s.validate()
            return reference_text(s).encode("utf-8")

        assert encoded(encode_snapshot, snap) == encoded(reference, snap)

    def test_lone_surrogate_raises_as_the_reference_does(self):
        snap = make_snapshot(model_id="yolo\ud800")
        error = encoded(encode_snapshot, snap)
        assert error[0] is UnicodeEncodeError
        assert error == encoded(lambda s: reference_text(s).encode("utf-8"), snap)

    @given(st.one_of(snapshots(), odd_typed_snapshots()), st.sampled_from(list(Transport)))
    @settings(max_examples=200)
    def test_encode_record(self, snap, transport):
        try:
            decoded = decode_snapshot(encode_snapshot(snap))
        except UnicodeEncodeError:
            decoded = snap
        for s in (snap, decoded):
            rec = LakeRecord(snapshot=s, ingest_time_ms=2**41 + 7, transport=transport, record_id=12345)
            assert encoded(encode_record, rec) == encoded(reference_record_bytes, rec)

    def test_leaves_format_as_the_c_encoder(self):
        snap = make_snapshot(seq=Count(7), model_id='m"\\\n\u2028')
        assert type(snap.seq) is Count
        assert telemetry.snapshot_text(snap) == reference_text(snap)
        assert '"seq":7,' in telemetry.snapshot_text(snap)


# --- generated decoder against the reference, byte by byte -------------------


def compact(text: str) -> bytes:
    """The compact serialization of a JSON document, keys in the order given."""
    return json.dumps(json.loads(text), separators=(",", ":"), ensure_ascii=False).encode("utf-8", "surrogatepass")


def reference_bytes(raw: bytes) -> TelemetrySnapshot:
    """decode_snapshot on bytes without the generated decoder: str input skips it."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError("invalid UTF-8", e.start) from None
    return decode_snapshot(text)


def takes_generated_path(raw: bytes) -> bool:
    match = telemetry._SNAPSHOT_RE.fullmatch(raw)
    return match is not None and telemetry.snapshot_from_tokens(match.groups()) is not None


def record_line(snapshot_bytes: bytes, prefix: bytes = b'{"record_id":7,"ingest_time_ms":86400000,"transport":"Http",') -> bytes:
    return prefix + b'"snapshot":' + snapshot_bytes + b"}"


def replace_value(raw: bytes, key: str, value: bytes) -> bytes:
    """``raw`` with the value of the leaf ``key`` (a unique key) replaced."""
    head, sep, tail = raw.partition(b'"%s":' % key.encode())
    assert sep, key
    end = min(i for i in (tail.find(b","), tail.find(b"}")) if i >= 0) if not tail.startswith(b'"') else tail.index(b'"', 1) + 1
    return head + sep + value + tail[end:]


FLOAT_KEYS = [name for _, cls, _ in telemetry._GROUPS for name, *_ in float_bounds(cls)]
LONGEST_REPR = repr(-2.2250738585072014e-308).encode()
FLOAT_VALUES = [
    b"25", b"0", b"-0", b"1", b"-1", b"1" * 19,  # int tokens in a float field
    b"2.5e1", b"2.5E+1", b"25e0", b"250e-1", b"1e400", b"-1e400", b"1e-400", b"5e-324", b"1e0005",
    b"-0.0", b"0.0", b"-0.0e0", b"025.0", b"00.5", b"0.50", b"1.", b".5", b"+1.0", b"1_0.0", b"0x10",
    b"NaN", b"-NaN", b"Infinity", b"-Infinity", b"true", b"null", b'"1.0"', b"[1.0]", b"{}",
    LONGEST_REPR, b"-" + LONGEST_REPR[1:].replace(b"e", b"0e"), b"1." + b"0" * 22, b"1." + b"0" * 23,
]
INT_VALUES = [
    b"0", b"-0", b"-1", b"01", b"00", b"1" + b"0" * 17, b"9" * 18, b"1" + b"0" * 18, b"9" * 19, b"9" * 4301,
    b"1.0", b"1e3", b"true", b"null", b'"1"',
]
STRING_VALUES = {
    "model_id": [
        b'"yo\\"lo"', b'"yolo\\u0041"', b'"yolo\\ud800"', b'"\\udfff"', b'"\\ud83d\\ude00"', b'"a\\\\b"', b'"a\\/b"',
        '"y\u00f6lo"'.encode(), '"\U0001f600"'.encode(), '"\u2028"'.encode(), b'"\x7f"', b'"%s"', b'"yo\xfflo"', b'"\xed\xa0\x80"',
        b'"\xc3"', b'"\x01"', b'"\t"', b'""', b'"' + b"a" * 256 + b'"', b'"' + b"a" * 257 + b'"',
        '"{}"'.format("é" * 128).encode(), '"{}"'.format("é" * 129).encode(), b"7", b"null",
    ],
    "device_id": [
        b'"dev\\u0031"', b'""', b'"' + b"a" * 64 + b'"', b'"' + b"a" * 65 + b'"', b'"dev 1"', '"dé"'.encode(), b"1",
    ],
    "platform_kind": [rb'"SimulatedDPU"', b'"Other"', b'"simulateddpu"', b'"SimulatedDPU "', b"null"],
}


def byte_mutations(raw: bytes) -> list:
    """Edits of canonical snapshot text that a compact-only decoder must judge."""
    out = [raw]
    for key in FLOAT_KEYS:
        out += [replace_value(raw, key, value) for value in FLOAT_VALUES]
    for key in telemetry._INT_KEYS:
        out += [replace_value(raw, key, value) for value in INT_VALUES]
    for key, values in STRING_VALUES.items():
        out += [replace_value(raw, key, value) for value in values]
    seq = raw[raw.index(b'"seq":') : raw.index(b',"device_time_ms"')]
    app = raw[raw.index(b'"app":') : raw.index(b',"model":')]
    out += [
        raw.replace(seq, seq + b"," + seq),  # duplicate keys
        raw.replace(app, app + b"," + app),
        raw.replace(b'"seq":', b'"\\u0073eq":'),  # an escaped key
        raw + b" ", raw + b"\n", raw + b"\r\n", b" " + raw, b"\xef\xbb\xbf" + raw,
        raw.replace(b'"seq":', b'"seq": '), raw.replace(b",", b", ", 1),
        raw[:-1] + b',"extra":1}', raw[:-1] + b",}", raw[:-1], raw + b"}", raw[:-2] + b"}",
    ]
    return out


RECORD_PREFIXES = [
    b'{"record_id":0,"ingest_time_ms":0,"transport":"PubSub",',
    b'{"record_id":' + b"9" * 18 + b',"ingest_time_ms":' + b"9" * 18 + b',"transport":"Http",',
    b'{"record_id":' + b"9" * 19 + b',"ingest_time_ms":1,"transport":"Http",',
    b'{"record_id":-1,"ingest_time_ms":1,"transport":"Http",',
    b'{"record_id":01,"ingest_time_ms":1,"transport":"Http",',
    b'{"record_id":1.0,"ingest_time_ms":1,"transport":"Http",',
    b'{"record_id":1,"ingest_time_ms":1,"transport":"Mqtt",',
    b'{"record_id":1,"ingest_time_ms":1,"transport":"\\u0048ttp",',
    b'{"ingest_time_ms":1,"record_id":1,"transport":"Http",',
    b'{"record_id":1,"record_id":2,"ingest_time_ms":1,"transport":"Http",',
    b'{"record_id": 1,"ingest_time_ms":1,"transport":"Http",',
]


class TestGeneratedDecodeMatchesReference:
    @given(snapshots(), st.data())
    @settings(max_examples=300)
    def test_compact_mutated_documents(self, snap, data):
        raw = compact(mutate(json.loads(encode_snapshot(snap)), data))
        assert outcome(decode_snapshot, raw) == outcome(reference_bytes, raw)
        line = record_line(raw)
        assert outcome(decode_record, line) == outcome(reference_record, line)

    @given(snapshots())
    @settings(max_examples=25, deadline=None)
    def test_byte_mutations_of_canonical_text(self, snap):
        generated = 0
        for raw in byte_mutations(encode_snapshot(snap)):
            assert outcome(decode_snapshot, raw) == outcome(reference_bytes, raw), raw
            line = record_line(raw)
            assert outcome(decode_record, line) == outcome(reference_record, line), line
            generated += takes_generated_path(raw)
        assert generated >= 10  # the edits reach the generated path, not only json.loads

    def test_byte_mutations_reach_both_paths_and_every_error_type(self):
        raws = byte_mutations(GOLDEN_BYTES)
        generated = [raw for raw in raws if takes_generated_path(raw)]
        outcomes = {outcome(decode_snapshot, raw)[0] for raw in raws}
        assert {"ok", ParseError, SchemaError, ValidationError} <= outcomes
        # exponents, -0.0, a trailing zero, the longest repr, raw non-ASCII, 18-digit ints and 256 bytes
        for value in (b"2.5e1", b"-0.0", b"0.50", b"1." + b"0" * 22, '"yölo"'.encode(), b"9" * 18, b'"' + b"a" * 256 + b'"'):
            assert any(value in raw for raw in generated), value
        # one past each token's bound: a 25-character float, a 19-digit int, 257 bytes
        for value in (b"1." + b"0" * 23, b"1" + b"0" * 18, b'"' + b"a" * 257 + b'"'):
            assert any(value in raw for raw in raws) and not any(value in raw for raw in generated), value
        for raw in generated:
            assert outcome(decode_snapshot, raw) == outcome(reference_bytes, raw)

    def test_a_network_member_never_names_the_error_of_an_earlier_field(self):
        # build_network runs as an argument of build_snapshot, so its error comes first; the reference's must win
        network = [name for name, *_ in float_bounds(NetworkMetrics)]
        for key in (key for key in FLOAT_KEYS if key not in network):
            for member in network:
                raw = replace_value(replace_value(GOLDEN_BYTES, key, b"-1e400"), member, b"1e400")
                assert telemetry._SNAPSHOT_RE.fullmatch(raw) is not None and not takes_generated_path(raw)
                result = outcome(decode_snapshot, raw)
                assert result == outcome(reference_bytes, raw), raw
                assert result[0] is ValidationError and result[1].startswith(f"{key}:"), result

    @given(snapshots(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_random_byte_edits(self, snap, data):
        raw = bytearray(encode_snapshot(snap))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(raw) - 1))
            edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            byte = data.draw(st.sampled_from(b'0123456789.-+eE",:{}\\ u\x00\xff\xc3'))
            if edit == "replace":
                raw[at] = byte
            elif edit == "insert":
                raw.insert(at, byte)
            else:
                del raw[at]
        raw = bytes(raw)
        assert outcome(decode_snapshot, raw) == outcome(reference_bytes, raw)
        assert outcome(decode_snapshot, memoryview(raw)) == outcome(reference_bytes, raw)

    @given(snapshots())
    @settings(max_examples=20, deadline=None)
    def test_record_prefix_mutations(self, snap):
        for prefix in RECORD_PREFIXES:
            line = record_line(encode_snapshot(snap), prefix)
            assert outcome(decode_record, line) == outcome(reference_record, line), line

    @given(snapshots(), st.data())
    @settings(max_examples=100)
    def test_compact_records_over_a_lake(self, tmp_path_factory, snap, data):
        lake = Lake(tmp_path_factory.mktemp("lake"))
        lake.append(LakeRecord(snapshot=snap, ingest_time_ms=1000, transport=Transport.HTTP, record_id=3))
        [path] = lake._partitions(snap.device.device_id)
        record = json.loads(path.read_bytes())
        record["snapshot"] = json.loads(mutate(record["snapshot"], data))
        line = compact(json.dumps(record))
        assert outcome(decode_record, line) == outcome(reference_record, line)


def hostile(size: int) -> dict:
    """Payloads of ``size`` bytes that run one token, or the tail, out to the end."""
    def fill(head: bytes, unit: bytes) -> bytes:
        return head + (unit * size)[: size - len(head)]

    cut = GOLDEN_BYTES.index
    return {
        "device_id": fill(b'{"device_id":"', b"a"),
        "seq": fill(GOLDEN_BYTES[: cut(b'"seq":') + 6], b"1"),
        "float": fill(GOLDEN_BYTES[: cut(b'"ee_latency_ms":') + 16], b"1"),
        "fraction": fill(GOLDEN_BYTES[: cut(b'"ee_latency_ms":') + 16] + b"1.", b"0"),
        "model_id": fill(GOLDEN_BYTES[: cut(b'"model_id":') + 12], b"a"),
        "model_id_utf8": fill(GOLDEN_BYTES[: cut(b'"model_id":') + 12], "é".encode()),
        "tail": fill(GOLDEN_BYTES, b" "),
    }


class TestGeneratedDecodeIsBounded:
    @pytest.mark.parametrize("pattern", [telemetry.SNAPSHOT_PATTERN, cloud._RECORD_HEAD_RE.pattern], ids=["snapshot", "record"])
    def test_patterns_match_a_bounded_length(self, pattern):
        try:
            from re import _parser
        except ImportError:  # Python 3.10
            import sre_parse as _parser

        _, high = _parser.parse(pattern).getwidth()
        assert high < 4096

    def test_one_mib_payloads_cost_what_one_kib_payloads_cost(self):
        import timeit

        small, big = hostile(1024), hostile(1 << 20)
        match = telemetry._SNAPSHOT_RE.fullmatch
        for name in small:
            assert len(big[name]) == 1 << 20
            assert match(big[name]) is None
            result = outcome(decode_snapshot, big[name])
            assert result == outcome(reference_bytes, big[name])
            assert result[0] == "ok" or issubclass(result[0], TelemetryError)
            t_small = min(timeit.repeat(lambda: match(small[name]), number=20, repeat=5))
            t_big = min(timeit.repeat(lambda: match(big[name]), number=20, repeat=5))
            # Scanning 1 MiB costs milliseconds; a bounded token stops within a few hundred bytes.
            assert t_big < 10 * t_small + 20 * 50e-6, (name, t_small, t_big)


class TestValidateRerunsGroupChecks:
    @pytest.mark.parametrize("path", [p for p in NUMERIC_PATHS if len(p) == 2], ids=".".join)
    def test_nan_set_after_construction_is_not_encoded(self, path):
        snap = make_snapshot()
        object.__setattr__(getattr(snap, path[0]), path[1], math.nan)
        with pytest.raises(ValidationError) as exc:
            encode_snapshot(snap)
        assert str(exc.value) == f"{path[1]}: must be finite"

    @pytest.mark.parametrize(
        "group, name, value",
        [("model", "accel_utilization", 1.5), ("network", "rsrq_db", 0.5), ("model", "model_id", ""),
         ("app", "fps", 500.0), ("energy", "power_w", -1.0), ("energy", "temp_c", "hot")],
    )
    def test_raises_what_construction_raises(self, group, name, value):
        snap = make_snapshot()
        values = dict(vars(getattr(snap, group)))
        values[name] = value
        with pytest.raises(ValidationError) as constructed:
            type(getattr(snap, group))(**values)
        object.__setattr__(getattr(snap, group), name, value)
        with pytest.raises(ValidationError) as validated:
            snap.validate()
        assert str(validated.value) == str(constructed.value)

    def test_construction_checks_each_group_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(telemetry.AppMetrics, "_check", lambda self: calls.append(self))
        snap = make_snapshot()
        assert len(calls) == 1
        snap.validate()
        assert len(calls) == 2


# --- generated builders and validate against the dataclasses -------------------


class SubDevice(DeviceIdentity):
    pass


class SubNetwork(NetworkMetrics):
    pass


def dataclass_snapshot(device, seq, device_time_ms, ee_latency_ms, fps, accel_utilization, mem_throughput_gbps,
                       cpu_utilization, mem_utilization, model_efficiency, model_id, power_w, temp_c, fps_per_watt,
                       network):
    """What ``build_snapshot`` must return or raise: the dataclass constructors'."""
    return TelemetrySnapshot(
        device=device,
        seq=seq,
        device_time_ms=device_time_ms,
        app=AppMetrics(ee_latency_ms=ee_latency_ms, fps=fps),
        model=ModelMetrics(
            accel_utilization=accel_utilization,
            mem_throughput_gbps=mem_throughput_gbps,
            cpu_utilization=cpu_utilization,
            mem_utilization=mem_utilization,
            model_efficiency=model_efficiency,
            model_id=model_id,
        ),
        energy=EnergyMetrics(power_w=power_w, temp_c=temp_c, fps_per_watt=fps_per_watt),
        network=network,
    )


def builder_values(snap: TelemetrySnapshot) -> dict:
    """The arguments of ``build_snapshot`` that build ``snap``."""
    return {"device": snap.device, "seq": snap.seq, "device_time_ms": snap.device_time_ms,
            **vars(snap.app), **vars(snap.model), **vars(snap.energy), "network": snap.network}


def shape(obj) -> list:
    """The instance dict's keys in order, each with its value's type, and the same of a nested dataclass."""
    return [(key, type(value), shape(value) if is_dataclass(value) else None) for key, value in vars(obj).items()]


def built(build, values: dict):
    """What ``build(**values)`` returns, its repr and its shape, or its exception type and message."""
    try:
        made = build(**values)
    except Exception as e:
        return type(e), str(e)
    return made, repr(made), shape(made)


def odd_numbers(value, ge=None, gt=None, le=None, lt=None):
    """``value`` itself, or a value that a number check may take differently."""
    near = [x for b in (ge, gt, le, lt) if b is not None for x in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))]
    return st.one_of(
        st.just(value),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, *near]),
        st.sampled_from([Real(value), True, False, None, "1.0", 10**400]),
        st.integers(-2, 2),
        st.floats(),
    )


def odd_ints(value):
    return st.one_of(st.just(value), st.integers(-2, 2**70), st.builds(Count, st.integers(0, 9)),
                     st.sampled_from([True, 1.0, None]))


ODD_MODEL_IDS = st.one_of(MODEL_IDS, st.sampled_from(["", None, 5, b"yolov3"]))


def perturbed(data, values: dict, odd: dict) -> dict:
    """``values`` with one to three of them replaced by a draw from ``odd``, their strategies."""
    names = data.draw(st.sets(st.sampled_from(sorted(odd)), min_size=1, max_size=3))
    return {name: data.draw(odd[name]) if name in names else value for name, value in values.items()}


def number_strategies(group) -> dict:
    return {name: odd_numbers(getattr(group, name), *bounds) for name, *bounds in float_bounds(type(group))}


def per_group_checks(snap: TelemetrySnapshot) -> None:
    """The reference of ``validate``: the snapshot's field checks, each group's construction checks, fps per watt."""
    snap._check_fields()
    for key in GROUPS:
        getattr(snap, key).__post_init__()
    snap._check_fps_per_watt()


def checked(check, snap):
    """The snapshot's repr and shape after ``check(snap)``, or the exception type and message."""
    try:
        check(snap)
    except Exception as e:
        return type(e), str(e)
    return repr(snap), shape(snap)


class TestGeneratedBuildersMatchTheDataclasses:
    @given(snapshots(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_build_snapshot(self, snap, data):
        values = builder_values(snap)
        odd = {
            "device": st.sampled_from([snap.device, SubDevice(snap.device.device_id), snap.device.device_id, None]),
            "seq": odd_ints(snap.seq),
            "device_time_ms": odd_ints(snap.device_time_ms),
            "model_id": ODD_MODEL_IDS,
            "network": st.sampled_from([snap.network, SubNetwork(**vars(snap.network)), vars(snap.network), None]),
        }
        for key in ("app", "model", "energy"):
            odd.update(number_strategies(getattr(snap, key)))
        values = perturbed(data, values, odd)
        assert built(telemetry.build_snapshot, values) == built(dataclass_snapshot, values)

    @given(snapshots(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_build_network(self, snap, data):
        values = perturbed(data, vars(snap.network), number_strategies(snap.network))
        assert built(telemetry.build_network, values) == built(NetworkMetrics, values)

    def test_valid_values_skip_the_constructors(self, monkeypatch):
        snap = make_snapshot()
        values = builder_values(snap)

        def constructed(self):
            raise AssertionError("a constructor ran")

        monkeypatch.setattr(telemetry._Metrics, "__post_init__", constructed)
        monkeypatch.setattr(TelemetrySnapshot, "__post_init__", constructed)
        monkeypatch.setattr(TelemetrySnapshot, "_check_groups", constructed)
        assert built(telemetry.build_snapshot, values)[1:] == (repr(snap), shape(snap))
        assert telemetry.build_network(**vars(snap.network)) == snap.network
        snap.validate()
        payload = encode_snapshot(snap)
        decoded, stored = decode_snapshot(payload, wire=True)
        assert (repr(decoded), shape(decoded), stored) == (repr(snap), shape(snap), payload)


#: A field of the snapshot, or ``(group, member)``, and what may be set there behind its back.
VALIDATE_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["device"]), st.sampled_from([None, "dev0", SubDevice("dev0")])),
    st.tuples(st.sampled_from(["seq", "device_time_ms"]), odd_ints(0)),
    st.tuples(st.sampled_from(GROUPS), st.sampled_from([None, GOLDEN.model, GOLDEN.network, SubNetwork(**vars(GOLDEN.network))])),
    st.tuples(st.just(("model", "model_id")), ODD_MODEL_IDS),
    *(
        st.tuples(st.just((key, name)), odd_numbers(getattr(getattr(GOLDEN, key), name), *bounds))
        for key, cls, _ in telemetry._GROUPS
        for name, *bounds in float_bounds(cls)
    ),
)


class TestGeneratedValidateMatchesPerGroupChecks:
    @given(snapshots(), st.lists(VALIDATE_MUTATIONS, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_mutated_snapshots(self, snap, mutations):
        # Members first: a later mutation may replace their group.
        mutations.sort(key=lambda m: isinstance(m[0], str))
        twins = []
        for _ in range(2):
            twin = copy.deepcopy(snap)
            for path, value in copy.deepcopy(mutations):
                target = twin if isinstance(path, str) else getattr(twin, path[0])
                object.__setattr__(target, path if isinstance(path, str) else path[1], value)
            twins.append(twin)
        assert checked(TelemetrySnapshot.validate, twins[0]) == checked(per_group_checks, twins[1])

    def test_int_set_in_a_float_field_is_stored_as_a_float(self):
        snap = make_snapshot()
        object.__setattr__(snap.network, "dl_mbps", 12)
        snap.validate()
        assert type(snap.network.dl_mbps) is float
        assert encode_snapshot(snap) == encode_snapshot(make_snapshot())


class TestGeneratedSourceIsReadable:
    @pytest.mark.parametrize(
        "function, head",
        [
            (telemetry.snapshot_text, "def snapshot_text(s):"),
            (telemetry._build_from_tokens, "def build(t0, "),
            (telemetry.build_snapshot, "def build_snapshot(device, seq, "),
            (telemetry.build_network, "def build_network(rssi_dbm, "),
            (TelemetrySnapshot.validate, "def validate(self):"),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_getsource_shows_the_generated_lines(self, function, head):
        assert function.__code__.co_filename == f"<edgetelem:{function.__name__}>"
        source = inspect.getsource(function)
        assert source.startswith(head)
        compile(source, "<check>", "exec")  # the whole function

    def test_a_traceback_shows_the_failing_generated_line(self):
        snap = make_snapshot()
        values = builder_values(snap)
        values["fps_per_watt"] *= 2
        with pytest.raises(ValidationError, match="^fps_per_watt: ") as exc:
            telemetry.build_snapshot(**values)
        frames = [f for f in traceback.extract_tb(exc.value.__traceback__) if f.filename == "<edgetelem:build_snapshot>"]
        assert [f.line for f in frames] == ["snapshot._check_fps_per_watt()"]
