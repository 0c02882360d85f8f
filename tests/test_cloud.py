import errno
import json
import math
import random
import re
import shutil
import tempfile
from datetime import datetime, timezone
from decimal import Decimal
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bench_fleet, make_snapshot, random_snapshot
from oracle_rules import naive_fire_sequence
from edgetelem.agent import ActionKind
from edgetelem.bandwidth import BandwidthPredictor, FitError, Placement
from edgetelem import cloud, telemetry
from edgetelem.bus import IngestHttpServer, RequestRejected, http_post_snapshot
from edgetelem.cloud import (
    ActionTemplate,
    BandwidthRuleConfig,
    CloudService,
    Comparator,
    DispatchDown,
    Firing,
    IngestRejected,
    Lake,
    LakeError,
    LakeRecord,
    ModelStore,
    Rule,
    RuleConfigError,
    RuleSet,
    RuleState,
    Transport,
    decode_record,
    encode_record,
    evaluate_rules,
    rules_from_dict,
)
from edgetelem.simulator import builtin_profiles, make_model_blob
from edgetelem.telemetry import NUMERIC_PATHS, ParseError, ValidationError, decode_snapshot, encode_snapshot

STEP_DOWN = ActionTemplate(action=ActionKind.STEP_FREQUENCY_DOWN)


def fps_rule(rule_id="r1", threshold=30.0, cooldown=3, consecutive=2, comparator=Comparator.GT) -> Rule:
    return Rule(
        rule_id=rule_id,
        metric_path="app.fps",
        comparator=comparator,
        threshold=threshold,
        action=STEP_DOWN,
        cooldown_ticks=cooldown,
        consecutive_required=consecutive,
    )


def fps_snapshot(fps: float, seq: int = 0):
    return make_snapshot(seq=seq, latency_ms=1000.0 / fps, fps=fps)


def drive(rules, snapshots):
    """Run the engine over a sequence; returns per-snapshot fired rule_ids."""
    states = {}
    out = []
    for snap in snapshots:
        firings, states = evaluate_rules(snap, rules, states)
        out.append([f.rule_id for f in firings])
    return out


class LogicalClock:
    def __init__(self, start=1_000):
        self.now = start

    def __call__(self):
        return self.now


def make_service(tmp_path, rules=None, dispatcher=None, store=None, subdir="lake", **kw):
    return CloudService(
        lake=Lake(tmp_path / subdir),
        rules=rules if rules is not None else RuleSet(),
        dispatcher=dispatcher,
        store=store,
        **kw,
    )


class TestIngest:
    def test_records_get_dense_increasing_ids(self, tmp_path):
        clock = LogicalClock()
        service = make_service(tmp_path, clock_ms=clock)
        for i in range(5):
            clock.now += 1000
            rec = service.ingest(encode_snapshot(make_snapshot(seq=i)), Transport.PUBSUB)
            assert rec.record_id == i
        assert [r.record_id for r in service.lake.scan("dev0")] == [0, 1, 2, 3, 4]

    def test_malformed_payload_dead_lettered(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(IngestRejected):
            service.ingest(b"{broken", Transport.HTTP)
        assert service.dead_letters == 1
        assert service.lake.scan("dev0") == []
        dead = (service.lake.root / "dead_letter.jsonl").read_text().strip().splitlines()
        assert len(dead) == 1
        entry = json.loads(dead[0])
        assert bytes.fromhex(entry["payload_hex"]) == b"{broken"
        assert entry["transport"] == "Http"

    def test_each_dead_letter_is_one_write(self, tmp_path, monkeypatch):
        service = make_service(tmp_path)
        writes = []
        real_write = cloud.os.write
        monkeypatch.setattr(cloud.os, "write", lambda fd, data: writes.append(bytes(data)) or real_write(fd, data))
        for payload in (b"{broken", b"[]", b"\xff" * 5000):
            with pytest.raises(IngestRejected):
                service.ingest(payload, Transport.PUBSUB)
        assert (service.lake.root / "dead_letter.jsonl").read_bytes() == b"".join(writes)
        assert [w.count(b"\n") for w in writes] == [1, 1, 1]

    def test_ingest_time_non_decreasing_per_device(self, tmp_path):
        clock = LogicalClock()
        service = make_service(tmp_path, clock_ms=clock)
        service.ingest(encode_snapshot(make_snapshot(seq=0)), Transport.PUBSUB)
        clock.now -= 500  # wall clock stepping backwards must not reorder the lake
        service.ingest(encode_snapshot(make_snapshot(seq=1)), Transport.PUBSUB)
        times = [r.ingest_time_ms for r in service.lake.scan("dev0")]
        assert times == sorted(times)

    def test_transport_equivalence(self, tmp_path):
        snap = make_snapshot()
        raw = encode_snapshot(snap)
        service_a = make_service(tmp_path, subdir="a", clock_ms=LogicalClock())
        service_b = make_service(tmp_path, subdir="b", clock_ms=LogicalClock())
        rec_a = service_a.ingest(raw, Transport.PUBSUB)
        rec_b = service_b.ingest(raw, Transport.HTTP)
        assert rec_a.snapshot == rec_b.snapshot == snap
        assert rec_a.record_id == rec_b.record_id
        assert rec_a.ingest_time_ms == rec_b.ingest_time_ms
        assert (rec_a.transport, rec_b.transport) == (Transport.PUBSUB, Transport.HTTP)

    def test_http_path_end_to_end(self, tmp_path):
        service = make_service(tmp_path, clock_ms=LogicalClock())
        server = IngestHttpServer(service.http_backend).start()
        try:
            ack = http_post_snapshot(server.address, encode_snapshot(make_snapshot()))
            assert ack["record_id"] == 0
            assert "ingest_time_ms" in ack
            with pytest.raises(Exception):
                http_post_snapshot(server.address, b"{}")
        finally:
            server.stop()
        assert service.dead_letters == 1
        assert len(service.lake.scan("dev0")) == 1


    def test_failed_append_consumes_no_record_id_or_ingest_time(self, tmp_path, monkeypatch):
        clock = LogicalClock(start=2_000)
        service = make_service(tmp_path, clock_ms=clock)
        service.ingest(encode_snapshot(make_snapshot(seq=0)), Transport.PUBSUB)
        real_append = Lake.append
        failures = []

        def append_failing_once(lake, rec, wire=None):
            if not failures:
                failures.append(rec.record_id)
                raise OSError(errno.ENOSPC, "No space left on device")
            real_append(lake, rec, wire)

        monkeypatch.setattr(Lake, "append", append_failing_once)
        clock.now = 5_000
        with pytest.raises(OSError):
            service.ingest(encode_snapshot(make_snapshot(seq=1)), Transport.PUBSUB)
        clock.now = 3_000
        rec = service.ingest(encode_snapshot(make_snapshot(seq=2)), Transport.PUBSUB)
        assert failures == [1]
        records = service.lake.scan("dev0")
        assert [r.record_id for r in records] == [0, 1]
        assert [r.snapshot.seq for r in records] == [0, 2]
        assert rec.ingest_time_ms == 3_000  # the failed record's time was not committed

    def test_feedback_failure_after_a_stored_record_is_counted_not_raised(self, tmp_path, monkeypatch, caplog):
        service = make_service(tmp_path, rules=RuleSet(bandwidth=BandwidthRuleConfig()))
        real_update = BandwidthPredictor.update
        calls = []

        def update_failing_on_second_ingest(predictor, net, dl_mbps):
            calls.append(None)
            if len(calls) == 2:
                raise FitError("normal matrix lost positive definiteness")
            real_update(predictor, net, dl_mbps)

        monkeypatch.setattr(BandwidthPredictor, "update", update_failing_on_second_ingest)
        payloads = [encode_snapshot(make_snapshot(seq=seq)) for seq in range(3)]
        returned = [service.ingest(payload, Transport.HTTP).record_id for payload in payloads]
        records = service.lake.scan("dev0")
        assert returned == [r.record_id for r in records] == [0, 1, 2]
        assert [r.snapshot.seq for r in records] == [0, 1, 2]  # nothing for a client to retry
        assert service.feedback_errors == 1
        assert "feedback failed for record 1 of dev0" in caplog.text


class TestRecordCodec:
    def test_roundtrip(self):
        rec = LakeRecord(snapshot=make_snapshot(), ingest_time_ms=123456, transport=Transport.HTTP, record_id=7)
        assert decode_record(encode_record(rec)) == rec

    def test_unknown_keys_rejected(self):
        rec = LakeRecord(snapshot=make_snapshot(), ingest_time_ms=1, transport=Transport.PUBSUB, record_id=0)
        doc = json.loads(encode_record(rec))
        doc["extra"] = 1
        with pytest.raises(ValueError):
            decode_record(json.dumps(doc).encode())


    def test_bytes_match_generic_json_encoding(self):
        rng = random.Random(5)
        for i in range(50):
            rec = LakeRecord(
                snapshot=random_snapshot(rng, seq=i),
                ingest_time_ms=rng.randrange(1 << 45),
                transport=rng.choice(list(Transport)),
                record_id=i * 977,
            )
            doc = {
                "record_id": rec.record_id,
                "ingest_time_ms": rec.ingest_time_ms,
                "transport": rec.transport.value,
                "snapshot": json.loads(encode_snapshot(rec.snapshot)),
            }
            expected = json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
            assert encode_record(rec) == expected


def ingest_and_read_line(payload: bytes, ingest_time_ms: int = 5_000):
    """Ingest one payload into a fresh lake; returns the record and the partition's bytes."""
    with tempfile.TemporaryDirectory() as root:
        service = CloudService(Lake(root), clock_ms=lambda: ingest_time_ms)
        rec = service.ingest(payload, Transport.PUBSUB)
        [partition] = Path(root).glob("*/*.jsonl")
        return rec, partition.read_bytes()


def respell_number(token: bytes, how: int) -> bytes:
    """Another spelling of a JSON float token with the same decimal value; an int token is kept."""
    if b"." not in token and b"e" not in token:
        return token
    if how <= 3:  # trailing zeros: 12.5 -> 12.50
        return token + b"0" * how if b"e" not in token and len(token) + how <= 24 else token
    sign, digits, exponent = Decimal(token.decode()).as_tuple()  # 12.5 -> 125e-1, 0.0 -> 0e-1
    return b"%s%se%d" % (b"-" * sign, "".join(map(str, digits)).encode(), exponent)


def compact(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


_FLOAT_LEAF = re.compile(rb"(?<=:)-?[0-9][0-9.eE+-]*(?=[,}])")


class TestLakeStoresValidatedPayload:
    """A payload the snapshot pattern accepts is stored as received; any
    other valid payload is stored as :func:`encode_record` writes it."""

    PREFIX = b'{"record_id":0,"ingest_time_ms":5000,"transport":"PubSub","snapshot":'

    def assert_stored_verbatim(self, payload: bytes) -> None:
        assert telemetry._SNAPSHOT_RE.fullmatch(payload), "the pattern must accept the payload"
        rec, stored = ingest_and_read_line(payload)
        assert stored == self.PREFIX + payload + b"}\n"
        line = stored[:-1]
        assert cloud._RECORD_HEAD_RE.match(line).end() == len(self.PREFIX)
        assert telemetry._SNAPSHOT_RE.fullmatch(line, len(self.PREFIX), len(line) - 1)
        assert decode_record(line) == rec
        assert rec.snapshot == decode_snapshot(payload)

    @pytest.mark.parametrize(
        "canonical, respelled",
        [
            (b'"mem_throughput_gbps":12.5,', b'"mem_throughput_gbps":12.50,'),
            (b'"mem_throughput_gbps":12.5,', b'"mem_throughput_gbps":1.25e1,'),
            (b'"ul_mbps":0.0}', b'"ul_mbps":-0.0}'),
            (b'"model_id":"yolov3"', b'"model_id":"yolov\\u0033"'),
            (b'"model_id":"yolov3"', b'"model_id":"\\u0079olov\\u0033"'),
        ],
    )
    def test_non_canonical_payload_the_pattern_accepts_is_stored_verbatim(self, canonical, respelled):
        payload = encode_snapshot(make_snapshot(mem_throughput_gbps=12.5, ul_mbps=0.0))
        assert canonical in payload
        self.assert_stored_verbatim(payload.replace(canonical, respelled))

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_respelled_numbers_and_escaped_strings_are_stored_verbatim(self, seed, data):
        payload = encode_snapshot(random_snapshot(random.Random(seed), seq=seed % 1000, device_id="dev0"))
        hows = iter(data.draw(st.lists(st.integers(0, 4), min_size=18, max_size=18)))
        payload = _FLOAT_LEAF.sub(lambda m: respell_number(m.group(), next(hows, 0)), payload)
        model_id = re.search(rb'"model_id":"([^"]*)"', payload).group(1)
        escape = data.draw(st.lists(st.booleans(), min_size=len(model_id), max_size=len(model_id)))
        spelled = b"".join(b"\\u%04x" % c if e else bytes([c]) for c, e in zip(model_id, escape))
        self.assert_stored_verbatim(payload.replace(b'"model_id":"%s"' % model_id, b'"model_id":"%s"' % spelled))

    @pytest.mark.parametrize(
        "respell",
        [
            pytest.param(lambda doc: json.dumps(doc, indent=2), id="pretty-printed"),
            pytest.param(lambda doc: compact(dict(reversed(doc.items()))), id="keys-reordered"),
            pytest.param(lambda doc: compact({**doc, "seq": 10**18 + 7}), id="19-digit-seq"),
            pytest.param(lambda doc: compact(doc).replace('"dev0"', '"dev\\u0030"'), id="escaped-device-id"),
        ],
    )
    def test_payload_only_the_fallback_accepts_is_stored_re_encoded(self, respell):
        payload = respell(json.loads(encode_snapshot(make_snapshot()))).encode()
        assert not telemetry._SNAPSHOT_RE.fullmatch(payload)
        rec, stored = ingest_and_read_line(payload)
        assert stored == encode_record(rec) + b"\n"  # one line
        assert decode_record(stored[:-1]) == rec
        assert rec.snapshot == decode_snapshot(payload)

    def test_one_pattern_match_per_ingest(self, tmp_path, monkeypatch):
        calls = []

        class Counting:
            def __init__(self, pattern):
                self.pattern = pattern

            def fullmatch(self, data):
                calls.append(self.pattern.pattern)
                return self.pattern.fullmatch(data)

            def match(self, data):
                calls.append(self.pattern.pattern)
                return self.pattern.match(data)

        monkeypatch.setattr(telemetry, "_SNAPSHOT_RE", Counting(telemetry._SNAPSHOT_RE))
        monkeypatch.setattr(cloud, "_RECORD_HEAD_RE", Counting(cloud._RECORD_HEAD_RE))
        service = make_service(tmp_path)
        for seq in range(3):
            service.ingest(encode_snapshot(make_snapshot(seq=seq)), Transport.PUBSUB)
        assert calls == [telemetry.SNAPSHOT_PATTERN] * 3


class TestRuleValidation:
    def test_unresolvable_path_rejected_at_load(self):
        with pytest.raises(RuleConfigError, match="metric_path"):
            fps_rule().__class__(
                rule_id="bad",
                metric_path="app.nonexistent",
                comparator=Comparator.GT,
                threshold=1.0,
                action=STEP_DOWN,
            )

    def test_non_numeric_path_rejected(self):
        with pytest.raises(RuleConfigError):
            Rule(rule_id="bad", metric_path="model.model_id", comparator=Comparator.GT, threshold=1.0, action=STEP_DOWN)

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(RuleConfigError):
            RuleSet(rules=(fps_rule("dup"), fps_rule("dup")))

    def test_config_loading(self):
        doc = {
            "rules": [
                {
                    "rule_id": "r2",
                    "metric_path": "model.model_efficiency",
                    "comparator": "LT",
                    "threshold": 0.5,
                    "action": {"action": "SwapModel", "model_id": "ssd_resnet50_fpn"},
                }
            ],
            "bandwidth": {"required_mbps": 8.0},
        }
        ruleset = rules_from_dict(doc)
        assert ruleset.rules[0].cooldown_ticks == 3  # default
        assert ruleset.bandwidth.required_mbps == 8.0
        assert ruleset.bandwidth.reentry_margin == 1.25

    def test_zero_ridge_lambda_rejected_at_load(self):
        # Loaded, λ = 0 made the first HTTP ingest fail after the lake had stored
        # the record, so a retrying client stored it twice.
        with pytest.raises(RuleConfigError, match=r"^bandwidth\.ridge_lambda: must be > 0\.0, got 0\.0$"):
            rules_from_dict({"bandwidth": {"ridge_lambda": 0}})

    def test_bandwidth_bounds_come_from_the_inherited_checker(self):
        with pytest.raises(telemetry.ValidationError, match=r"^required_mbps: must be finite$"):
            BandwidthRuleConfig(required_mbps=float("nan"))
        with pytest.raises(RuleConfigError, match=r"^bandwidth\.window: must be >= 1, got 0$"):
            rules_from_dict({"bandwidth": {"window": 0}})
        with pytest.raises(RuleConfigError, match=r"^rules\[0\]\.cooldown_ticks: must be >= 1, got 0$"):
            rules_from_dict({"rules": [rule_doc(cooldown_ticks=0)]})

    def test_swap_template_requires_model_id(self):
        with pytest.raises(RuleConfigError):
            rules_from_dict(
                {"rules": [{"rule_id": "x", "metric_path": "app.fps", "comparator": "GT", "threshold": 1,
                            "action": {"action": "SwapModel"}}]}
            )


def rule_doc(**overrides) -> dict:
    doc = {"rule_id": "x", "metric_path": "app.fps", "comparator": "GT", "threshold": 30.0,
           "action": {"action": "StepFrequencyDown"}}
    doc.update(overrides)
    return doc


class TestStrictRulesConfig:
    """A typo or a wrongly typed value is an error, not a silent default."""

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"bandwidth": {"requred_mbps": 1}}, "bandwidth.requred_mbps: unknown key"),
            ({"bandwidth": {"predictor": {"window": 10}}}, "bandwidth.predictor: unknown key"),
            ({"rules": [rule_doc(cooldown_tick=0)]}, r"rules\[0\]\.cooldown_tick: unknown key"),
            ({"rules": [rule_doc(action={"action": "SwapModel", "modle_id": "yolov3"})]},
             r"rules\[0\]\.action\.modle_id: unknown key"),
            ({"rulez": []}, "rulez: unknown key"),
            ({"bandwidth": {"scaler": {"rsrp_center": -90}}}, "bandwidth.scaler: unknown key"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, path):
        with pytest.raises(RuleConfigError, match=path):
            rules_from_dict(doc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"rules": [rule_doc(threshold="30")]}, r"rules\[0\]\.threshold: must be a number"),
            ({"rules": [rule_doc(threshold=10**400)]}, r"rules\[0\]\.threshold: out of float range"),
            ({"rules": [rule_doc(cooldown_ticks="3")]}, r"rules\[0\]\.cooldown_ticks: must be an integer"),
            ({"rules": [rule_doc(consecutive_required=2.0)]}, r"rules\[0\]\.consecutive_required: must be an integer"),
            ({"rules": [rule_doc(comparator="gt")]}, r"rules\[0\]\.comparator: must be one of 'GT'"),
            ({"rules": [rule_doc(action="StepFrequencyDown")]}, r"rules\[0\]\.action: must be an object"),
            ({"rules": [rule_doc(), rule_doc(rule_id=None)]}, r"rules\[1\]\.rule_id: must be a string"),
            ({"rules": {}}, "rules: must be an array"),
            ({"bandwidth": {"window": True}}, "bandwidth.window: must be an integer"),
            ({"bandwidth": []}, "bandwidth: must be an object"),
            ([], "document: must be an object"),
        ],
    )
    def test_wrong_types_rejected(self, doc, path):
        with pytest.raises(RuleConfigError, match=path):
            rules_from_dict(doc)

    def test_template_check_names_its_rule(self):
        with pytest.raises(RuleConfigError, match=r"rules\[0\]\.action: SetPlacement action requires placement"):
            rules_from_dict({"rules": [rule_doc(action={"action": "SetPlacement"})]})

    def test_defaults_come_from_the_dataclasses(self):
        ruleset = rules_from_dict({"rules": [rule_doc(threshold=30)], "bandwidth": {}})
        assert ruleset.rules[0] == Rule(
            rule_id="x", metric_path="app.fps", comparator=Comparator.GT, threshold=30.0, action=STEP_DOWN
        )
        assert isinstance(ruleset.rules[0].threshold, float)
        assert ruleset.bandwidth == BandwidthRuleConfig()
        assert rules_from_dict({}) == RuleSet()

    def test_predictor_keys_sit_flat_in_the_bandwidth_block(self):
        bandwidth = rules_from_dict({"bandwidth": {"required_mbps": 8, "window": 12}}).bandwidth
        assert bandwidth.required_mbps == 8.0
        assert bandwidth.window == 12


def reference_holds(comparator: Comparator, value: float, threshold: float) -> bool:
    """The comparison as written before rules bound an operator."""
    if comparator is Comparator.GT:
        return value > threshold
    if comparator is Comparator.LT:
        return value < threshold
    if comparator is Comparator.GE:
        return value >= threshold
    return value <= threshold


def with_leaf(path: tuple, value):
    """A stand-in snapshot holding ``value`` at ``path``."""
    for part in reversed(path):
        value = SimpleNamespace(**{part: value})
    return value


class TestRulePredicate:
    @pytest.mark.parametrize("path", NUMERIC_PATHS, ids=".".join)
    @pytest.mark.parametrize("comparator", list(Comparator))
    def test_predicate_matches_the_comparison(self, path, comparator):
        threshold = 30.0
        metric_path = ".".join(path)
        rule = Rule(rule_id="r", metric_path=metric_path, comparator=comparator, threshold=threshold, action=STEP_DOWN)
        for value in (29.0, threshold, 30, math.nextafter(threshold, math.inf), 31.0, math.nan):
            expected = reference_holds(comparator, value, threshold)
            assert rule.predicate(with_leaf(path, value)) is expected, value

    def test_bound_functions_stay_out_of_eq_hash_and_repr(self):
        a, b = fps_rule(), fps_rule()
        assert a == b and hash(a) == hash(b)
        assert a != fps_rule(comparator=Comparator.GE)
        assert repr(a) == repr(b) and "attrgetter" not in repr(a)


class TestRuleSemantics:
    def test_fires_on_second_consecutive_hit(self):
        fired = drive([fps_rule()], [fps_snapshot(35.0, seq=i) for i in range(3)])
        assert fired == [[], ["r1"], []]

    def test_strict_boundary_resets_counter(self):
        snaps = [fps_snapshot(35.0), fps_snapshot(30.0), fps_snapshot(35.0), fps_snapshot(35.0)]
        fired = drive([fps_rule()], snaps)
        assert fired == [[], [], [], ["r1"]]

    def test_cooldown_spacing(self):
        fired = drive([fps_rule(cooldown=3)], [fps_snapshot(35.0, seq=i) for i in range(10)])
        fire_ticks = [i for i, f in enumerate(fired) if f]
        assert fire_ticks == [1, 4, 7]
        for a, b in zip(fire_ticks, fire_ticks[1:]):
            assert b - a >= 3

    def test_pure_function_does_not_mutate_inputs(self):
        rule = fps_rule()
        states = {}
        snap = fps_snapshot(35.0)
        evaluate_rules(snap, [rule], states)
        assert states == {}

    def test_actions_ordered_by_rule_id(self):
        rules = [
            fps_rule("z-rule", threshold=1.0, consecutive=1),
            fps_rule("a-rule", threshold=1.0, consecutive=1),
        ]
        firings, _ = evaluate_rules(fps_snapshot(35.0), rules, {})
        assert [f.rule_id for f in firings] == ["a-rule", "z-rule"]

    def test_matches_naive_oracle_randomized(self):
        rng = random.Random(20240917)
        paths = ("app.fps", "model.model_efficiency", "energy.power_w", "network.dl_mbps", "app.ee_latency_ms")
        ranges = {
            "app.fps": (0.0, 200.0),
            "model.model_efficiency": (0.0, 2.0),
            "energy.power_w": (5.0, 30.0),
            "network.dl_mbps": (0.0, 60.0),
            "app.ee_latency_ms": (5.0, 500.0),
        }
        for _ in range(200):
            rules = [
                Rule(
                    rule_id=f"r{idx}",
                    metric_path=(path := rng.choice(paths)),
                    comparator=rng.choice(list(Comparator)),
                    threshold=rng.uniform(*ranges[path]),
                    action=STEP_DOWN,
                    cooldown_ticks=rng.randint(1, 5),
                    consecutive_required=rng.randint(1, 4),
                )
                for idx in range(rng.randint(1, 5))
            ]
            snaps = [random_snapshot(rng, seq=i, device_id="dev0") for i in range(rng.randint(1, 60))]
            assert drive(rules, snaps) == naive_fire_sequence(rules, snaps)


class TestDispatch:
    def test_two_rules_fire_ordered(self, tmp_path):
        sent = []
        rules = RuleSet(rules=(
            fps_rule("r-b", threshold=1.0, consecutive=1),
            fps_rule("r-a", threshold=1.0, consecutive=1),
        ))
        service = make_service(tmp_path, rules=rules, dispatcher=lambda d, m: sent.append((d, m)), clock_ms=LogicalClock())
        service.ingest(encode_snapshot(fps_snapshot(35.0)), Transport.PUBSUB)
        assert [m.rule_id for _, m in sent] == ["r-a", "r-b"]
        assert [m.seq for _, m in sent] == [0, 1]
        assert service.dispatched == 2

    def test_dispatcher_down_drops_and_counts(self, tmp_path):
        def failing(_d, _m):
            raise DispatchDown("broker gone")

        rules = RuleSet(rules=(fps_rule(consecutive=1),))
        service = make_service(tmp_path, rules=rules, dispatcher=failing, clock_ms=LogicalClock())
        service.ingest(encode_snapshot(fps_snapshot(35.0)), Transport.PUBSUB)
        assert service.dropped_dispatches == 1
        assert service.dispatched == 0

    def test_swap_digest_resolved_from_manifest(self, tmp_path):
        profiles = builtin_profiles()
        store = ModelStore.create(
            tmp_path / "models",
            {p.model_id: make_model_blob(p.model_id, p.artifact_size_bytes) for p in profiles.values()},
        )
        sent = []
        rules = rules_from_dict(
            {"rules": [{"rule_id": "r2", "metric_path": "model.model_efficiency", "comparator": "LT",
                        "threshold": 0.5, "consecutive_required": 1,
                        "action": {"action": "SwapModel", "model_id": "ssd_resnet50_fpn"}}]}
        )
        service = make_service(tmp_path, rules=rules, dispatcher=lambda d, m: sent.append(m),
                               store=store, clock_ms=LogicalClock())
        service.ingest(encode_snapshot(make_snapshot(model_efficiency=0.1)), Transport.PUBSUB)
        assert len(sent) == 1
        assert sent[0].expected_digest == profiles["ssd_resnet50_fpn"].artifact_digest


class TestBandwidthRule:
    @staticmethod
    def _two_level_trace(durations=(20, 20, 20)):
        from edgetelem.bandwidth import LinearCoeffs, NetTrace, NetTraceConfig, RegimeSpec

        def regime(b0, rsrp_mean, duration):
            return RegimeSpec(
                duration_ticks=duration,
                rsrp_mean_dbm=rsrp_mean,
                rsrp_std=3.0,
                rsrq_mean_db=-10.0,
                rsrq_std=1.5,
                rssi_offset_db=17.0,
                true_coeffs=LinearCoeffs(b0=b0, b_rsrp=1.0, b_rsrq=0.5, b_rssi=0.3, b_hist=0.1),
                noise_std_mbps=0.3,
            )

        regimes = (regime(22.0, -90.0, durations[0]), regime(2.0, -112.0, durations[1]),
                   regime(22.0, -90.0, durations[2]))
        return NetTrace(NetTraceConfig(seed=77, regimes=regimes))

    def _run(self, tmp_path, ticks):
        sent = []
        rules = RuleSet(bandwidth=BandwidthRuleConfig())
        clock = LogicalClock()
        service = make_service(tmp_path, rules=rules, dispatcher=lambda d, m: sent.append(m), clock_ms=clock)
        trace = self._two_level_trace()
        for i in range(ticks):
            clock.now += 1000
            net, _ = trace.tick()
            service.ingest(encode_snapshot(make_snapshot(seq=i, network=net)), Transport.PUBSUB)
        return sent

    def test_single_device_action_on_sustained_low_prediction(self, tmp_path):
        sent = self._run(tmp_path, ticks=40)
        placements = [(m.action, m.placement) for m in sent]
        assert placements == [(ActionKind.SET_PLACEMENT, Placement.DEVICE)]
        assert sent[0].rule_id == "r3-placement"

    def test_recovery_with_margin_and_no_flapping(self, tmp_path):
        sent = self._run(tmp_path, ticks=60)
        kinds = [m.placement for m in sent]
        assert kinds == [Placement.DEVICE, Placement.EDGE]

    def test_a_downlink_beyond_any_radio_is_dead_lettered_not_fitted(self, tmp_path):
        # In bounds, 1e300 Mbps froze the predictor: every later update of its device raised FitError.
        fleet = bench_fleet()
        payloads = fleet.generate_payloads(1, 300, 7301)
        payloads[100], replaced = re.subn(rb'"dl_mbps":[^,]+', b'"dl_mbps":1e+300', payloads[100])
        assert replaced == 1
        service = make_service(tmp_path, rules=rules_from_dict(fleet.RULES))
        for payload in payloads:
            try:
                service.ingest(payload, Transport.PUBSUB)
            except IngestRejected:
                pass
        assert (service.feedback_errors, service.dead_letters) == (0, 1)


class TestModelStore:
    def test_get_matches_manifest(self, tmp_path):
        store = ModelStore.create(tmp_path / "m", {"yolov3": b"weights"})
        blob, digest = store.get("yolov3")
        import hashlib

        assert blob == b"weights"
        assert digest == hashlib.sha256(b"weights").hexdigest()

    def test_unknown_id(self, tmp_path):
        from edgetelem.agent import ModelNotFound

        store = ModelStore.create(tmp_path / "m", {"yolov3": b"weights"})
        with pytest.raises(ModelNotFound):
            store.get("nope")


class TestLakeQuery:
    def _populate(self, tmp_path, n=50):
        clock = LogicalClock(start=0)
        service = make_service(tmp_path, clock_ms=clock)
        for i in range(n):
            clock.now += 250
            service.ingest(encode_snapshot(make_snapshot(seq=i)), Transport.PUBSUB)
        return service.lake

    def test_empty_range(self, tmp_path):
        lake = self._populate(tmp_path)
        assert lake.query("dev0", 10, 10) == []

    def test_full_range_matches_ingest_count(self, tmp_path):
        lake = self._populate(tmp_path, n=50)
        assert len(lake.query("dev0", 0, 1 << 60)) == 50

    def test_half_open_boundary(self, tmp_path):
        lake = self._populate(tmp_path, n=10)
        records = lake.scan("dev0")
        t = records[4].ingest_time_ms
        window = lake.query("dev0", t, records[7].ingest_time_ms)
        assert [r.record_id for r in window] == [4, 5, 6]  # `to` excluded, `from` included

    def test_matches_full_scan_oracle(self, tmp_path):
        lake = self._populate(tmp_path, n=50)
        lo, hi = 2000, 9000
        oracle = [r.record_id for r in lake.scan("dev0") if lo <= r.ingest_time_ms < hi]
        assert [r.record_id for r in lake.query("dev0", lo, hi)] == oracle

    def test_unknown_device_is_empty(self, tmp_path):
        lake = self._populate(tmp_path)
        assert lake.query("phantom", 0, 1 << 60) == []


DAY_MS = 86_400_000
DAY0_MS = int(datetime(2024, 3, 9, tzinfo=timezone.utc).timestamp()) * 1000  # 2024-03-09T00:00Z


def lake_record(record_id, ingest_time_ms, device_id="dev0"):
    return LakeRecord(
        snapshot=make_snapshot(device_id=device_id, seq=record_id),
        ingest_time_ms=ingest_time_ms,
        transport=Transport.PUBSUB,
        record_id=record_id,
    )


def lake_line(rec):
    return encode_record(rec) + b"\n"


class TestLakeQueryByDay:
    # Two records per day on three UTC days, the first of each day at 00:00:00.000.
    TIMES = [DAY0_MS + d * DAY_MS + off for d in range(3) for off in (0, DAY_MS - 1)]

    def _lake(self, tmp_path):
        lake = Lake(tmp_path / "lake")
        for i, t in enumerate(self.TIMES):
            lake.append(lake_record(i, t))
        return lake

    def _count_decodes(self, monkeypatch):
        calls = []
        real = cloud.decode_record
        monkeypatch.setattr(cloud, "decode_record", lambda line: calls.append(line) or real(line))
        return calls

    @pytest.mark.parametrize(
        "lo, hi, ids, decoded",
        [
            (DAY0_MS + DAY_MS, DAY0_MS + 2 * DAY_MS, [2, 3], 2),  # exactly one day
            (DAY0_MS + DAY_MS - 1, DAY0_MS + DAY_MS + 1, [1, 2], 4),  # both edges of a midnight
            (DAY0_MS + DAY_MS, DAY0_MS + DAY_MS + 1, [2], 2),  # `from` at midnight included
            (DAY0_MS, DAY0_MS + DAY_MS, [0, 1], 2),  # `to` at midnight excluded
            (DAY0_MS - DAY_MS, DAY0_MS + 3 * DAY_MS, [0, 1, 2, 3, 4, 5], 6),
            (DAY0_MS + 5, DAY0_MS + 5, [], 0),  # empty window
            (DAY0_MS + 2 * DAY_MS, DAY0_MS, [], 0),  # inverted window
            (DAY0_MS + 3 * DAY_MS, DAY0_MS + 9 * DAY_MS, [], 0),  # after the last day
        ],
    )
    def test_reads_only_overlapping_days(self, tmp_path, monkeypatch, lo, hi, ids, decoded):
        lake = self._lake(tmp_path)
        oracle = [r for r in lake.scan("dev0") if lo <= r.ingest_time_ms < hi]
        calls = self._count_decodes(monkeypatch)
        result = lake.query("dev0", lo, hi)
        assert result == oracle
        assert [r.record_id for r in result] == ids
        assert len(calls) == decoded

    def test_corrupt_partition_outside_window_is_not_read(self, tmp_path):
        lake = self._lake(tmp_path)
        day0 = tmp_path / "lake" / "dev0" / "20240309.jsonl"
        day0.write_bytes(b"not json\n" + day0.read_bytes())
        assert [r.record_id for r in lake.query("dev0", DAY0_MS + DAY_MS, DAY0_MS + 3 * DAY_MS)] == [2, 3, 4, 5]
        with pytest.raises(LakeError):
            lake.query("dev0", DAY0_MS, DAY0_MS + 2 * DAY_MS)
        with pytest.raises(LakeError):
            lake.scan("dev0")

    def test_file_not_named_by_day_is_always_read(self, tmp_path):
        lake = self._lake(tmp_path)
        stray = lake_record(9, DAY0_MS + 5)
        (tmp_path / "lake" / "dev0" / "imported.jsonl").write_bytes(lake_line(stray))
        window = (DAY0_MS + 2 * DAY_MS, DAY0_MS + 3 * DAY_MS)
        assert [r.record_id for r in lake.query("dev0", *window)] == [4, 5]
        assert lake.query("dev0", DAY0_MS, DAY0_MS + 10) == [r for r in lake.scan("dev0") if r.ingest_time_ms < DAY0_MS + 10]


class TestLakePartitionCache:
    def _files(self, lake, device_id):
        return {p.name: p.read_bytes() for p in sorted((lake.root / device_id).glob("*.jsonl"))}

    def test_two_devices_alternating_across_midnight(self, tmp_path):
        lake = Lake(tmp_path / "lake")
        midnight = DAY0_MS + DAY_MS
        times = [midnight - 2, midnight - 1, midnight, midnight, midnight + 1, midnight + 7]
        records = [lake_record(i, t, device_id=("a", "b")[i % 2]) for i, t in enumerate(times)]
        for rec in records:
            lake.append(rec)
        assert self._files(lake, "a") == {
            "20240309.jsonl": lake_line(records[0]),
            "20240310.jsonl": lake_line(records[2]) + lake_line(records[4]),
        }
        assert self._files(lake, "b") == {
            "20240309.jsonl": lake_line(records[1]),
            "20240310.jsonl": lake_line(records[3]) + lake_line(records[5]),
        }

    def test_append_back_to_an_earlier_day(self, tmp_path):
        lake = Lake(tmp_path / "lake")
        records = [
            lake_record(0, DAY0_MS + DAY_MS + 10),
            lake_record(1, DAY0_MS + 10),
            lake_record(2, DAY0_MS + DAY_MS - 1),
            lake_record(3, DAY0_MS + DAY_MS),
        ]
        for rec in records:
            lake.append(rec)
        assert self._files(lake, "dev0") == {
            "20240309.jsonl": lake_line(records[1]) + lake_line(records[2]),
            "20240310.jsonl": lake_line(records[0]) + lake_line(records[3]),
        }

    def test_device_directory_removed_between_appends(self, tmp_path):
        lake = Lake(tmp_path / "lake")
        first, second = lake_record(0, DAY0_MS + 1), lake_record(1, DAY0_MS + 2)
        lake.append(first)
        shutil.rmtree(tmp_path / "lake" / "dev0")
        lake.append(second)
        assert self._files(lake, "dev0") == {"20240309.jsonl": lake_line(second)}


class TestLakeDurability:
    def test_torn_trailing_line_tolerated_and_reported(self, tmp_path):
        lake = self._make_lake_with_records(tmp_path, 3)
        path = next((lake.root / "dev0").glob("*.jsonl"))
        with open(path, "ab") as fh:
            fh.write(b'{"record_id":99,"ingest_')  # simulated crash mid-append
        records = lake.scan("dev0")
        assert [r.record_id for r in records] == [0, 1, 2]
        assert lake.torn_lines == 1

    def test_corrupt_interior_line_is_storage_error(self, tmp_path):
        lake = self._make_lake_with_records(tmp_path, 2)
        path = next((lake.root / "dev0").glob("*.jsonl"))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0][: len(lines[0]) // 2].rstrip(b"\n") + b"\n" + lines[1])
        with pytest.raises(LakeError) as err:
            lake.scan("dev0")
        assert str(path) in str(err.value)

    def test_replay_is_byte_identical(self, tmp_path):
        a = self._make_lake_with_records(tmp_path, 10, subdir="a")
        b = self._make_lake_with_records(tmp_path, 10, subdir="b")
        files_a = sorted((a.root / "dev0").glob("*.jsonl"))
        files_b = sorted((b.root / "dev0").glob("*.jsonl"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize(
        "line",
        [
            b"[" * 100_000,
            b"1",
            b"null",
            b'"record"',
            b'{"record_id":"0"}',
        ],
        ids=["deep", "int", "null", "string", "partial"],
    )
    def test_any_corrupt_line_is_storage_error(self, tmp_path, line):
        lake = self._make_lake_with_records(tmp_path, 2)
        path = next((lake.root / "dev0").glob("*.jsonl"))
        first, second = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + line + b"\n" + second)
        with pytest.raises(LakeError, match="corrupt record at line 2"):
            lake.scan("dev0")

    @pytest.mark.parametrize(
        "key, value", [("record_id", "0"), ("record_id", 0.0), ("ingest_time_ms", True), ("ingest_time_ms", None)]
    )
    def test_wrongly_typed_enrichment_is_storage_error(self, tmp_path, key, value):
        lake = self._make_lake_with_records(tmp_path, 1)
        path = next((lake.root / "dev0").glob("*.jsonl"))
        doc = json.loads(path.read_bytes())
        doc[key] = value
        path.write_bytes(json.dumps(doc).encode() + b"\n")
        with pytest.raises(LakeError, match=f"corrupt record at line 1: {key}: must be"):
            lake.scan("dev0")

    def test_a_restarted_service_goes_on_from_the_lake(self, tmp_path):
        lake = self._make_lake_with_records(tmp_path, 3)  # dev0 ingested at 2000, 3000 and 4000 ms
        clock = LogicalClock(start=500)
        other = make_service(tmp_path, clock_ms=clock)
        other.ingest(encode_snapshot(make_snapshot(device_id="dev1")), Transport.PUBSUB)
        service = make_service(tmp_path, clock_ms=clock)
        rec = service.ingest(encode_snapshot(make_snapshot(seq=3)), Transport.PUBSUB)
        assert [r.record_id for r in lake.scan("dev0")] == [0, 1, 2, 4]
        assert [r.record_id for r in lake.scan("dev1")] == [3]
        assert rec.ingest_time_ms == 4000  # not below the device's last ingest time before the restart

    @pytest.mark.parametrize("tail_bytes", [16, 1 << 16], ids=["widening_reads", "one_read"])
    def test_a_torn_tail_is_dead_lettered_when_a_service_starts(self, tmp_path, monkeypatch, tail_bytes):
        monkeypatch.setattr(cloud, "_TAIL_BYTES", tail_bytes)
        lake = self._make_lake_with_records(tmp_path, 2)
        path = next((lake.root / "dev0").glob("*.jsonl"))
        whole, fragment = path.read_bytes(), b'{"record_id":2,"ingest_'  # simulated crash mid-append
        path.write_bytes(whole + fragment)
        newest = lake.root / "dev0" / "20991231.jsonl"
        newest.write_bytes(fragment)  # a newest partition that holds no whole line
        Lake(lake.root).scan("dev0")
        assert path.read_bytes() == whole + fragment  # a reader leaves the lake as it is
        service = make_service(tmp_path, clock_ms=LogicalClock(start=10_000))
        service.ingest(encode_snapshot(make_snapshot(seq=2)), Transport.PUBSUB)
        assert [r.record_id for r in service.lake.scan("dev0")] == [0, 1, 2]
        assert newest.read_bytes() == b""
        dead = [json.loads(line) for line in (lake.root / "dead_letter.jsonl").read_bytes().splitlines()]
        torn = {"error": "torn tail", "payload_hex": fragment.hex()}
        assert dead == [
            {"partition": "dev0/20991231.jsonl", "offset": 0, **torn},
            {"partition": f"dev0/{path.name}", "offset": len(whole), **torn},
        ]
        assert service.lake.torn_lines == 0

    def _make_lake_with_records(self, tmp_path, n, subdir="lake"):
        clock = LogicalClock()
        service = make_service(tmp_path, subdir=subdir, clock_ms=clock)
        for i in range(n):
            clock.now += 1000
            service.ingest(encode_snapshot(make_snapshot(seq=i, device_time_ms=i * 1000)), Transport.PUBSUB)
        return service.lake


class TestEvaluateRulesInAnyOrder:
    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_rule_sets_match_the_oracle(self, seed):
        rng = random.Random(seed)
        paths = [".".join(p) for p in NUMERIC_PATHS]
        snapshots = [random_snapshot(rng, seq=i, device_id="dev0") for i in range(rng.randint(20, 120))]
        rules = [
            Rule(
                rule_id=f"r{idx}",  # "r10" sorts before "r2"
                metric_path=(path := rng.choice(paths)),
                comparator=rng.choice(list(Comparator)),
                threshold=float(attrgetter(path)(rng.choice(snapshots))),
                action=STEP_DOWN,
                cooldown_ticks=rng.randint(1, 6),
                consecutive_required=rng.randint(1, 4),
            )
            for idx in range(rng.randint(2, 14))
        ]
        shuffled = rng.sample(rules, len(rules))
        assert drive(shuffled, snapshots) == naive_fire_sequence(shuffled, snapshots)
        ordered = sorted(rules, key=lambda r: r.rule_id)
        states_shuffled, states_ordered = {}, {}
        for snap in snapshots:
            firings_a, states_shuffled = evaluate_rules(snap, shuffled, states_shuffled)
            firings_b, states_ordered = evaluate_rules(snap, ordered, states_ordered)
            assert firings_a == firings_b
            assert states_shuffled == states_ordered
            assert all(type(s) is RuleState for s in states_shuffled.values())

    def test_states_count_as_a_validated_state_would(self):
        rule = fps_rule(cooldown=2, consecutive=2)
        _, states = evaluate_rules(fps_snapshot(35.0), [rule], {})
        assert states == {"r1": RuleState(consecutive_hits=1, ticks_since_fire=3)}
        firings, states = evaluate_rules(fps_snapshot(35.0), [rule], states)
        assert firings == [Firing(rule_id="r1", action=STEP_DOWN)]
        assert states == {"r1": RuleState(consecutive_hits=2, ticks_since_fire=0)}
        _, states = evaluate_rules(fps_snapshot(20.0), [rule], states)
        assert states == {"r1": RuleState(consecutive_hits=0, ticks_since_fire=1)}


#: Payloads that decode used to let escape as something other than a
#: TelemetryError: stored and then failing to encode, or raising from json.loads
#: or float(); ingest then answered 503 and dead-lettered nothing.
GOLDEN_RAW = encode_snapshot(make_snapshot())
SEQ_AT = GOLDEN_RAW.index(b'"seq":') + len(b'"seq":')
TEMP_AT = GOLDEN_RAW.index(b'"temp_c":') + len(b'"temp_c":')
DEFECTS = {
    "lone_surrogate": (
        GOLDEN_RAW.replace(b'"yolov3"', b'"yolo\\ud800"'),
        ValidationError, "model_id: must not contain a lone surrogate",
    ),
    "int_over_digit_limit": (
        GOLDEN_RAW.replace(b'"seq":0', b'"seq":' + b"1" * 5000),
        ParseError, f"integer literal longer than 4300 digits (byte {SEQ_AT})",
    ),
    "negative_int_over_digit_limit_in_float_field": (
        GOLDEN_RAW.replace(b'"temp_c":45.0', b'"temp_c":-' + b"1" * 4301),
        ParseError, f"integer literal longer than 4300 digits (byte {TEMP_AT})",
    ),
    "int_beyond_float_range": (
        GOLDEN_RAW.replace(b'"temp_c":45.0', b'"temp_c":' + b"1" * 400),
        ValidationError, "temp_c: out of float range",
    ),
    "nested_too_deeply": (b"[" * 100_000, ParseError, "nested too deeply (byte 0)"),
}


class TestDecodeRaisesOnlyTelemetryError:
    @pytest.mark.parametrize("name", DEFECTS)
    def test_decode(self, name):
        payload, error, message = DEFECTS[name]
        with pytest.raises(error) as exc:
            decode_snapshot(payload)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", DEFECTS)
    def test_ingest_dead_letters(self, tmp_path, name):
        payload, _, message = DEFECTS[name]
        service = make_service(tmp_path)
        with pytest.raises(IngestRejected, match=re.escape(message)):
            service.ingest(payload, Transport.PUBSUB)
        assert service.dead_letters == 1
        assert service.lake.scan("dev0") == []
        [entry] = (service.lake.root / "dead_letter.jsonl").read_text().splitlines()
        assert bytes.fromhex(json.loads(entry)["payload_hex"]) == payload

    @pytest.mark.parametrize("name", ["lone_surrogate", "int_over_digit_limit", "int_beyond_float_range"])
    def test_http_answers_400(self, tmp_path, name):
        payload, _, message = DEFECTS[name]
        service = make_service(tmp_path)
        server = IngestHttpServer(service.http_backend).start()
        try:
            with pytest.raises(RequestRejected, match=re.escape(message)):
                http_post_snapshot(server.address, payload)
        finally:
            server.stop()
        assert service.dead_letters == 1
