import hashlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

from edgetelem.scenario import (
    FaultSpec,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    run_scenario,
    scenario_from_dict,
)
from edgetelem.bandwidth import DEFAULT_TRACE_CONFIG, trace_config_from_dict
from edgetelem.bus import DelaySpec
from edgetelem.cloud import BandwidthRuleConfig, Lake, RuleSet, rules_from_dict
from edgetelem.simulator import PlatformConfig, config_from_dict
from edgetelem.telemetry import from_doc, to_doc

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "edgetelem" / "scenarios"

BASE_TRACE = {
    "regimes": [
        {
            "duration_ticks": 1000,
            "rsrp_mean_dbm": -95.0,
            "rsrp_std": 4.0,
            "rsrq_mean_db": -10.0,
            "rsrq_std": 1.5,
            "rssi_offset_db": 17.0,
            "true_coeffs": {"b0": 20.0, "b_rsrp": 2.0, "b_rsrq": 1.0, "b_rssi": 0.5, "b_hist": 0.2},
            "noise_std_mbps": 1.0,
        }
    ]
}


def simple_spec(**overrides) -> ScenarioSpec:
    doc = {
        "name": "unit",
        "seed": 7,
        "ticks": 10,
        "platform": {},
        "rules": {},
        "trace": BASE_TRACE,
    }
    doc.update(overrides)
    return scenario_from_dict(doc, Path("."))


class TestSpecValidation:
    def test_fault_beyond_run_rejected(self):
        with pytest.raises(ScenarioError, match="at_tick"):
            simple_spec(faults=[{"at_tick": 10, "kind": "BrokerDown", "duration_ticks": 1}])

    def test_unknown_fault_kind(self):
        with pytest.raises(ScenarioError):
            FaultSpec(at_tick=0, kind="Meteor")

    def test_broker_down_needs_duration(self):
        with pytest.raises(ScenarioError):
            FaultSpec(at_tick=0, kind="BrokerDown")

    def test_delay_shim_needs_dist(self):
        with pytest.raises(ScenarioError):
            FaultSpec(at_tick=0, kind="DelayShim")

    def test_ref_resolution(self, tmp_path):
        (tmp_path / "trace.json").write_text(json.dumps(BASE_TRACE))
        doc = {"seed": 1, "ticks": 3, "platform": {}, "rules": {}, "trace": "trace.json"}
        spec = scenario_from_dict(doc, tmp_path)
        assert spec.trace == BASE_TRACE

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tickz": 10}, "tickz: unknown key"),
            ({"faults": [{"at_tick": 1, "kind": "BrokerDown", "duration_tick": 1}]},
             r"faults\[0\]\.duration_tick: unknown key"),
            ({"faults": [{"at_tick": 1, "kind": "Meteor"}]}, r"faults\[0\]: unknown fault kind 'Meteor'"),
            ({"ticks": "10"}, "ticks: must be an integer"),
            ({"platform": 3}, "platform: must be an object"),
            ({"rules": {"rulez": []}}, "rules: rulez: unknown key"),
            ({"rules": {"rules": [{"rule_id": "r1"}]}}, r"rules: rules\[0\]\.metric_path: required key missing"),
            ({"platform": {"tdp_w": 5}}, "platform: tdp_w: unknown key"),
            ({"platform": {"noise_seed": "1"}}, "platform: noise_seed: must be an integer"),
            ({"trace": {}}, "trace: regimes: required key missing"),
            ({"trace": {**BASE_TRACE, "seed": 1.5}}, "trace: seed: must be an integer"),
            ({"faults": [{"at_tick": 1, "kind": "DelayShim", "dist": "normal:50"}]},
             r"faults\[0\]: cannot parse delay spec 'normal:50'"),
            ({"faults": [{"at_tick": 1, "kind": "DelayShim", "dist": "constant:nan"}]},
             r"faults\[0\]: delay parameters must be finite and >= 0"),
        ],
    )
    def test_bad_spec_is_scenario_error(self, overrides, message):
        with pytest.raises(ScenarioError, match=message):
            simple_spec(**overrides)

    def test_spec_defaults(self):
        spec = scenario_from_dict({"seed": 1, "ticks": 3, "trace": BASE_TRACE}, Path("."), default_name="stem")
        assert (spec.name, spec.platform, spec.rules, spec.faults) == ("stem", {}, {}, ())

    def test_delay_dist_as_string_or_object(self):
        as_string = simple_spec(faults=[{"at_tick": 1, "kind": "DelayShim", "dist": "normal:50:5"}])
        assert as_string.faults[0].delay_spec == DelaySpec(kind="normal", mean_ms=50.0, std_ms=5.0)
        with pytest.raises(ScenarioError, match=r"faults\[0\]\.dist: must be a string"):
            simple_spec(
                faults=[{"at_tick": 1, "kind": "DelayShim", "dist": {"kind": "normal", "mean_ms": 50, "std_ms": 5}}]
            )

    @pytest.mark.parametrize(
        "fault, message",
        [
            ({"at_tick": 1, "kind": "BrokerDown", "duration_ticks": 1, "dist": "constant:5"},
             r"faults\[0\]: BrokerDown takes no dist"),
            ({"at_tick": 1, "kind": "CorruptModelBlob", "dist": "constant:5"},
             r"faults\[0\]: CorruptModelBlob takes no dist"),
            ({"at_tick": 1, "kind": "DelayShim", "duration_ticks": -1, "dist": "constant:5"},
             r"faults\[0\]\.duration_ticks: must be >= 0, got -1"),
            ({"at_tick": 1, "kind": "CorruptModelBlob", "duration_ticks": -2},
             r"faults\[0\]\.duration_ticks: must be >= 0, got -2"),
        ],
    )
    def test_misplaced_dist_and_negative_duration_are_rejected(self, fault, message):
        with pytest.raises(ScenarioError, match=message):
            simple_spec(faults=[fault])

    def test_missing_ref_is_scenario_error(self, tmp_path):
        doc = {"seed": 1, "ticks": 3, "platform": {}, "rules": {}, "trace": "nope.json"}
        with pytest.raises(ScenarioError, match="nope.json"):
            scenario_from_dict(doc, tmp_path)


class TestRunBasics:
    def test_plain_run_report_shape(self, tmp_path):
        report = run_scenario(simple_spec(), tmp_path / "out")
        assert report["ticks"] == 10
        assert report["published"] == 10
        assert report["dead_letters"] == 0
        assert report["lake_path"] == "lake"
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "lake" / "dev0").exists()
        assert report["final_fps"] == pytest.approx(34.013, rel=0.02)

    def test_report_json_matches_returned_report(self, tmp_path):
        report = run_scenario(simple_spec(), tmp_path / "out")
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk == report

    def test_broker_down_fault_buffers_and_replays(self, tmp_path):
        spec = simple_spec(faults=[{"at_tick": 3, "kind": "BrokerDown", "duration_ticks": 3}])
        report = run_scenario(spec, tmp_path / "out")
        assert report["published"] == 10  # buffered during the outage, flushed after
        from edgetelem.cloud import Lake

        records = Lake(tmp_path / "out" / "lake").scan("dev0")
        seqs = [r.snapshot.seq for r in records]
        assert seqs == list(range(10))

    def test_delay_shim_shifts_ingest_times(self, tmp_path):
        spec = simple_spec(faults=[{"at_tick": 0, "kind": "DelayShim", "dist": "constant:250"}])
        run_scenario(spec, tmp_path / "out")
        from edgetelem.cloud import Lake

        records = Lake(tmp_path / "out" / "lake").scan("dev0")
        offsets = [r.ingest_time_ms - r.snapshot.device_time_ms for r in records]
        assert all(off == 250 for off in offsets)


def ingest_offsets(spec: ScenarioSpec, out: Path) -> list:
    run_scenario(spec, out)
    return [r.ingest_time_ms - r.snapshot.device_time_ms for r in Lake(out / "lake").scan("dev0")]


class TestFaultWindows:
    def test_delay_shim_ends_after_its_duration(self, tmp_path):
        spec = simple_spec(faults=[{"at_tick": 1, "kind": "DelayShim", "duration_ticks": 2, "dist": "constant:5"}])
        assert ingest_offsets(spec, tmp_path) == [0, 5, 5, 0, 0, 0, 0, 0, 0, 0]

    def test_later_delay_shim_takes_over_from_an_earlier_one(self, tmp_path):
        spec = simple_spec(faults=[
            {"at_tick": 0, "kind": "DelayShim", "dist": "constant:250"},
            {"at_tick": 5, "kind": "DelayShim", "dist": "constant:10"},
        ])
        assert ingest_offsets(spec, tmp_path) == [250] * 5 + [10] * 5

    def test_delay_shim_listed_last_wins_a_tie_and_the_earlier_one_resumes(self, tmp_path):
        spec = simple_spec(faults=[
            {"at_tick": 0, "kind": "DelayShim", "dist": "constant:7"},
            {"at_tick": 2, "kind": "DelayShim", "duration_ticks": 3, "dist": "constant:1"},
            {"at_tick": 2, "kind": "DelayShim", "duration_ticks": 2, "dist": "constant:3"},
        ])
        assert ingest_offsets(spec, tmp_path) == [7, 7, 3, 3, 1, 7, 7, 7, 7, 7]

    def test_each_delay_shim_draws_from_its_own_stream(self, tmp_path):
        one = [{"at_tick": 0, "kind": "DelayShim", "dist": "normal:50:20"}]
        alone = ingest_offsets(simple_spec(faults=one), tmp_path / "alone")
        later = [{"at_tick": 6, "kind": "DelayShim", "dist": "normal:50:20"}]
        both = ingest_offsets(simple_spec(faults=one + later), tmp_path / "both")
        assert both[:6] == alone[:6]
        assert both[6:] != alone[6:]

    def test_corrupt_blob_window_ends_before_the_swap(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "scenario_model_swap_corrupt.json").read_text())
        doc["faults"][0]["duration_ticks"] = 3
        report = run_scenario(scenario_from_dict(doc, SCENARIO_DIR), tmp_path)
        swaps = [a for a in report["actions"] if a["action"] == "SwapModel"]
        assert [(a["dispatch_tick"], a["status"]) for a in swaps] == [(3, "applied")]
        assert report["final_model_id"] == "ssd_resnet50_fpn"


class TestPlatformModelFit:
    def test_swap_to_a_model_the_platform_cannot_run_is_rejected(self, tmp_path):
        # yolov3's 29.4 ms does not exceed a 100 ms CPU overhead; the swap used to end the run.
        rule = {"rule_id": "r2", "metric_path": "app.fps", "comparator": "LT", "threshold": 10.0,
                "action": {"action": "SwapModel", "model_id": "yolov3"}}
        spec = simple_spec(
            platform={"cpu_overhead_ms": 100}, initial_model_id="ssd_resnet50_fpn", rules={"rules": [rule]}
        )
        report = run_scenario(spec, tmp_path / "out")
        assert report["final_model_id"] == "ssd_resnet50_fpn"
        assert report["actions"]
        assert {(a["status"], a["reason"]) for a in report["actions"]} == {("rejected", "unsupported")}

    def test_initial_model_the_platform_cannot_run_is_rejected_at_load(self):
        with pytest.raises(ScenarioError, match=r"^initial_model_id: yolov3's base_latency_ms \(29\.4\) must exceed"):
            simple_spec(platform={"cpu_overhead_ms": 50})


class TestReproducibility:
    @pytest.mark.parametrize("name", ["scenario_fps_cap", "scenario_model_swap", "scenario_offload"])
    def test_same_spec_same_seed_identical_outputs(self, tmp_path, name):
        spec = load_scenario(SCENARIO_DIR / f"{name}.json")
        report_a = run_scenario(spec, tmp_path / "a")
        report_b = run_scenario(spec, tmp_path / "b")
        assert report_a == report_b
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
        lakes_a = sorted((tmp_path / "a" / "lake").rglob("*.jsonl"))
        lakes_b = sorted((tmp_path / "b" / "lake").rglob("*.jsonl"))
        assert [p.name for p in lakes_a] == [p.name for p in lakes_b]
        assert lakes_a, "scenario must persist at least one lake file"
        for pa, pb in zip(lakes_a, lakes_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_changes_lake(self, tmp_path):
        a = run_scenario(simple_spec(seed=1), tmp_path / "a")
        b = run_scenario(simple_spec(seed=2), tmp_path / "b")
        file_a = next((tmp_path / "a" / "lake" / "dev0").glob("*.jsonl"))
        file_b = next((tmp_path / "b" / "lake" / "dev0").glob("*.jsonl"))
        assert file_a.read_bytes() != file_b.read_bytes()


class TestBundledScenarios:
    def test_fps_cap_closes_the_loop(self, tmp_path):
        report = run_scenario(load_scenario(SCENARIO_DIR / "scenario_fps_cap.json"), tmp_path)
        downs = [a for a in report["actions"] if a["action"] == "StepFrequencyDown" and a["status"] == "applied"]
        assert downs
        assert report["final_fps"] <= 30.0

    def test_model_swap_and_corrupt_variant(self, tmp_path):
        ok = run_scenario(load_scenario(SCENARIO_DIR / "scenario_model_swap.json"), tmp_path / "ok")
        assert ok["final_model_id"] == "ssd_resnet50_fpn"
        bad = run_scenario(load_scenario(SCENARIO_DIR / "scenario_model_swap_corrupt.json"), tmp_path / "bad")
        assert bad["final_model_id"] == "yolov3"
        rejected = [a for a in bad["actions"] if a["status"] == "rejected"]
        assert rejected and rejected[0]["reason"] == "integrity"


# sha256 of each scenario output file except the model store, recorded from the
# code before the snapshot schema was derived from its dataclasses.  These pin
# the lake and report formats: a change here must be deliberate.
GOLDEN_DIGESTS = {
    "scenario_fps_cap": {
        "lake/dev0/19700101.jsonl": "c1557095a2cb3e0a44a83253bfe686c5d3682186f67ad538e53a049cb0816d8c",
        "report.json": "028ab50df6043d71576fd014bdc7fa0fe3504dddb9d9333aa6c8148799e3675e",
    },
    "scenario_model_swap": {
        "lake/dev0/19700101.jsonl": "201e960d3cab2a3bee43b4f8b34255014fd26c87fdd415dbf0c4a21efcba2c5b",
        "report.json": "62bf10b59213375bbc44e15c799b0f4254b396e2d9688dc9dd0bc1638ed21ba3",
    },
    "scenario_model_swap_corrupt": {
        "lake/dev0/19700101.jsonl": "10cdb91189d6a0ac9ada50330d665abeb7175db4f24e00b8cdf7ae7295459892",
        "report.json": "1fb3f12a4cd946b88a650b47f77b60053a46a6f3fe44b78004dd18e62ba927d5",
    },
    "scenario_offload": {
        "lake/dev0/19700101.jsonl": "e461c588a69abec529f0d6a853da9ee2f7e035b76f392432add8aecc4e36db98",
        "report.json": "a9891e2a2567496a9160f8f819553014db4dbd27f8b8281c7692250dbb6c0dcb",
    },
    "fps_cap_delay_shim": {
        "lake/dev0/19700101.jsonl": "f3b38a0d74143333f37253fc12f6370f6ed5f4b5f42965eddf0fddb859ab4727",
        "report.json": "028ab50df6043d71576fd014bdc7fa0fe3504dddb9d9333aa6c8148799e3675e",
    },
}


def golden_spec(name: str) -> ScenarioSpec:
    if name == "fps_cap_delay_shim":
        doc = json.loads((SCENARIO_DIR / "scenario_fps_cap.json").read_text())
        doc["faults"] = [{"at_tick": 5, "kind": "DelayShim", "dist": "normal:50:5"}]
        return scenario_from_dict(doc, SCENARIO_DIR)
    return load_scenario(SCENARIO_DIR / f"{name}.json")


def output_digests(out: Path) -> dict:
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.relative_to(out).parts[0] != "models"
    }


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_outputs_match_golden_digests(tmp_path, name):
    run_scenario(golden_spec(name), tmp_path)
    assert output_digests(tmp_path) == GOLDEN_DIGESTS[name]


def readme_rules_config() -> dict:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"\*\*Rules config\*\*:\s*```json\n(.*?)```", readme, re.S)
    return json.loads(block.group(1))


def bench_fleet_rules() -> dict:
    path = Path(__file__).resolve().parent.parent / "perfbench" / "fleet.py"
    spec = importlib.util.spec_from_file_location("_bench_fleet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RULES


def test_documented_and_bundled_configs_load_strictly():
    """README's example, the bundled scenarios and the benchmark's rules all load."""
    assert rules_from_dict(readme_rules_config()).rules[0].rule_id == "r1-fps-cap"
    assert len(rules_from_dict(bench_fleet_rules()).rules) == 3
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths
    for path in paths:
        spec = load_scenario(path)
        assert spec.name == json.loads(path.read_text()).get("name", path.stem)
        config_from_dict(spec.platform)
        rules_from_dict(spec.rules)
        trace_config_from_dict({"seed": spec.seed, **spec.trace})
        assert from_doc(ScenarioSpec, to_doc(spec), ScenarioError) == spec


def test_every_loader_reads_back_what_to_doc_writes():
    rules = rules_from_dict(readme_rules_config())
    for ruleset in (rules, RuleSet(bandwidth=BandwidthRuleConfig())):
        assert rules_from_dict(to_doc(ruleset)) == ruleset
    platform = PlatformConfig(level_ratios=(0.5, 1.0), noise_seed=3)
    assert config_from_dict(to_doc(platform)) == platform
    assert trace_config_from_dict(to_doc(DEFAULT_TRACE_CONFIG)) == DEFAULT_TRACE_CONFIG
    spec = simple_spec(rules=to_doc(rules), faults=[{"at_tick": 1, "kind": "DelayShim", "dist": "normal:50:5"}])
    assert scenario_from_dict(to_doc(spec), Path(".")) == spec
