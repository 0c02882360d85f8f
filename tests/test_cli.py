import csv
import errno
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import make_snapshot
from edgetelem import cli
from edgetelem.bus import MAX_PAYLOAD, Broker, connect
from edgetelem.cloud import Lake
from edgetelem.telemetry import encode_snapshot

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "edgetelem" / "scenarios"

LAKE_CSV_HEADER = [
    "device_id", "platform_kind", "seq", "device_time_ms",
    "app.ee_latency_ms", "app.fps",
    "model.accel_utilization", "model.mem_throughput_gbps", "model.cpu_utilization",
    "model.mem_utilization", "model.model_efficiency", "model.model_id",
    "energy.power_w", "energy.temp_c", "energy.fps_per_watt",
    "network.rssi_dbm", "network.rsrq_db", "network.rsrp_dbm", "network.modem_temp_c",
    "network.dl_mbps", "network.ul_mbps",
    "ingest_time_ms", "transport",
]


def run_cli(*args, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "edgetelem", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def start_role(*args, ready: str) -> tuple:
    """Start a long-running role; returns the process and its stderr line that contains ``ready``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "edgetelem", *args], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
    )
    for line in proc.stderr:
        if ready in line:
            return proc, line
    proc.kill()
    raise AssertionError(f"{args[0]} exited with {proc.wait()} before logging {ready!r}")


def stop_role(proc) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.stderr.close()


class TestScenarioCommand:
    def test_bundled_scenario_exit_zero(self, tmp_path):
        result = run_cli("scenario", str(SCENARIO_DIR / "scenario_fps_cap.json"), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["final_fps"] <= 30.0
        assert (tmp_path / "out" / "report.json").exists()

    def test_missing_spec_exits_config_error(self):
        result = run_cli("scenario", "/nonexistent/spec.json")
        assert result.returncode == 1

    def test_invalid_fault_tick_exits_config_error(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "scenario_fps_cap.json").read_text())
        doc["faults"] = [{"at_tick": 999, "kind": "BrokerDown", "duration_ticks": 1}]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run_cli("scenario", str(bad))
        assert result.returncode == 1

    def test_bad_nested_document_is_invalid_before_any_output(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "scenario_fps_cap.json").read_text())
        doc["rules"] = {"rulez": []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli("scenario", str(bad), "--out", str(out))
        assert result.returncode == 1
        assert "invalid scenario: rules: rulez: unknown key" in result.stderr
        assert not out.exists()  # no models/ directory and no partial report.json

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("trace", {"ul_fraction": -0.5}, "invalid scenario: trace: ul_fraction: must be >= 0.0, got -0.5"),
            ("platform", {"cpu_overhead_ms": 50},
             "invalid scenario: initial_model_id: yolov3's base_latency_ms (29.4) must exceed "
             "the platform's cpu_overhead_ms (50.0)"),
        ],
    )
    def test_document_the_run_would_fail_on_is_invalid_before_any_output(self, tmp_path, key, value, message):
        # Both used to load, then fail the run with a partial report.json, lake/ and models/.
        doc = json.loads((SCENARIO_DIR / "scenario_fps_cap.json").read_text())
        doc[key].update(value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli("scenario", str(bad), "--out", str(out))
        assert result.returncode == 1
        assert message in result.stderr
        assert not out.exists()

    def test_unknown_initial_model_is_invalid_before_any_output(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "scenario_fps_cap.json").read_text())
        doc["initial_model_id"] = "nope"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = run_cli("scenario", str(bad), "--out", str(out))
        assert result.returncode == 1
        assert "invalid scenario: unknown initial_model_id 'nope'" in result.stderr
        assert not (out / "report.json").exists()


class TestBenchLatency:
    def test_pubsub_csv_row(self):
        result = run_cli("bench-latency", "--transport", "pubsub", "-n", "20", "--payload", "64")
        assert result.returncode == 0, result.stderr
        row = result.stdout.strip().split(",")
        assert row[0] == "pubsub"
        assert row[1] == "20"
        assert row[2] == "64"
        mean, lo, hi, std = map(float, row[3:])
        assert lo <= mean <= hi
        assert std >= 0.0

    def test_http_with_injected_delay(self):
        result = run_cli(
            "bench-latency", "--transport", "http", "-n", "5", "--payload", "64", "--delay", "constant:20"
        )
        assert result.returncode == 0, result.stderr
        mean = float(result.stdout.strip().split(",")[3])
        assert mean >= 20.0

    def test_zero_count_is_usage_error(self):
        result = run_cli("bench-latency", "--transport", "pubsub", "-n", "0")
        assert result.returncode == 2

    def test_payload_above_max_is_usage_error(self):
        result = run_cli("bench-latency", "--transport", "http", "-n", "1", "--payload", str(MAX_PAYLOAD + 1))
        assert result.returncode == 2

    def test_bad_delay_spec_is_usage_error(self):
        result = run_cli("bench-latency", "--transport", "http", "-n", "1", "--delay", "weird:1:2:3")
        assert result.returncode == 2


class TestLakeExport:
    def test_rows_match_lake_contents(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("scenario", str(SCENARIO_DIR / "scenario_fps_cap.json"), "--out", str(out)).returncode == 0
        lake_dir = out / "lake"
        expected = len(Lake(lake_dir).query("dev0", 0, 1 << 60))
        result = run_cli("lake", "export", "--lake", str(lake_dir), "--device", "dev0")
        assert result.returncode == 0, result.stderr
        rows = list(csv.reader(io.StringIO(result.stdout)))
        header, data = rows[0], rows[1:]
        assert header == LAKE_CSV_HEADER
        assert len(data) == expected == 60
        assert all(r[0] == "dev0" for r in data)
        rec = Lake(lake_dir).scan("dev0")[0]
        s = rec.snapshot
        assert data[0] == [
            str(v)
            for v in (
                s.device.device_id, s.device.platform_kind.value, s.seq, s.device_time_ms,
                s.app.ee_latency_ms, s.app.fps,
                s.model.accel_utilization, s.model.mem_throughput_gbps, s.model.cpu_utilization,
                s.model.mem_utilization, s.model.model_efficiency, s.model.model_id,
                s.energy.power_w, s.energy.temp_c, s.energy.fps_per_watt,
                s.network.rssi_dbm, s.network.rsrq_db, s.network.rsrp_dbm, s.network.modem_temp_c,
                s.network.dl_mbps, s.network.ul_mbps,
                rec.ingest_time_ms, rec.transport.value,
            )
        ]

    def test_empty_lake_prints_header_only(self, tmp_path):
        (tmp_path / "empty").mkdir()
        result = run_cli("lake", "export", "--lake", str(tmp_path / "empty"), "--device", "dev0")
        assert result.returncode == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows == [LAKE_CSV_HEADER]

    def test_missing_lake_is_an_error_and_is_not_created(self, tmp_path):
        result = run_cli("lake", "export", "--lake", str(tmp_path / "nolake" / "typo"), "--device", "dev0")
        assert result.returncode == 1
        assert "lake error: no lake directory at" in result.stderr
        assert result.stdout == ""
        assert not (tmp_path / "nolake").exists()

    def test_bad_range_is_usage_error(self, tmp_path):
        result = run_cli(
            "lake", "export", "--lake", str(tmp_path), "--device", "dev0", "--from", "10", "--to", "5"
        )
        assert result.returncode == 2


class TestDeployedRoles:
    def test_agent_against_live_broker(self):
        broker = Broker().start()
        try:
            host, port = broker.address
            result = run_cli(
                "agent", "--broker", f"{host}:{port}", "--device", "cli-dev", "--max-ticks", "3",
                "--period", "50",
            )
        finally:
            broker.stop()
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout)
        assert report["ticks"] == 3
        assert report["published"] == 3

    def test_agent_with_unreachable_broker_exits_network_error(self):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        result = run_cli("agent", "--broker", f"127.0.0.1:{port}", "--max-ticks", "1")
        assert result.returncode == 2

    @pytest.mark.parametrize("flags", [["--broker", "nonsense"], ["--broker", "127.0.0.1:1", "--store", "nonsense"]])
    def test_agent_bad_address_exits_network_error(self, flags):
        result = run_cli("agent", *flags, "--max-ticks", "1")
        assert result.returncode == 2
        assert "usage error: address must be HOST:PORT, got 'nonsense'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_agent_bad_platform_config_exits_config_error(self, tmp_path):
        bad = tmp_path / "platform.json"
        bad.write_text('{"level_ratios": []}')
        result = run_cli("agent", "--broker", "127.0.0.1:1", "--platform", str(bad), "--max-ticks", "1")
        assert result.returncode == 1

    def test_agent_unknown_model_names_the_option(self):
        result = run_cli("agent", "--broker", "127.0.0.1:1", "--model", "nope", "--max-ticks", "1")
        assert result.returncode == 1
        assert "config error: --model: unknown model 'nope'" in result.stderr

    def test_broker_port_in_use_exits_network_error(self):
        holder = socket.socket()
        holder.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            result = run_cli("broker", "--port", str(port))
        finally:
            holder.close()
        assert result.returncode == 2

    def test_broker_holds_64_sessions_on_its_threads_at_rest(self):
        proc, line = start_role("broker", "--port", "0", ready="broker listening on")
        sessions = []
        try:
            host, port = line.strip().rsplit(" ", 1)[1].rsplit(":", 1)
            tasks = f"/proc/{proc.pid}/task"
            at_rest = len(os.listdir(tasks))
            sessions = [connect((host, int(port)), f"held{i}") for i in range(64)]
            time.sleep(0.1)
            assert len(os.listdir(tasks)) == at_rest
        finally:
            for session in sessions:
                session.close()
            stop_role(proc)

    def test_cloud_reconnects_after_broker_restart(self, tmp_path):
        broker = Broker().start()
        host, port = broker.address
        lake = tmp_path / "lake"
        proc, _ = start_role(
            "cloud", "--broker", f"{host}:{port}", "--lake", str(lake), "--http-port", "0", ready="cloud up"
        )
        try:
            broker.stop()
            broker = Broker(host, port).start()
            publisher = connect(broker.address, "dev0")
            deadline = time.monotonic() + 5.0
            seq = 0
            while not Lake(lake).scan("dev0") and time.monotonic() < deadline:
                publisher.publish("telemetry/dev0", encode_snapshot(make_snapshot(seq=seq)))
                seq += 1
                time.sleep(0.1)
            assert Lake(lake).scan("dev0"), "no snapshot reached the lake through the restarted broker"
            publisher.close()
        finally:
            broker.stop()
            stop_role(proc)

    def test_agent_trace_without_regimes_exits_config_error(self, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text("{}")
        result = run_cli("agent", "--broker", "127.0.0.1:1", "--trace", str(trace), "--max-ticks", "1")
        assert result.returncode == 1
        assert "config error: seed: required key missing" in result.stderr
        assert "Traceback" not in result.stderr

    def test_agent_unreachable_broker_exits_network_error(self, monkeypatch, caplog):
        def unreachable(*args, **kwargs):
            raise OSError(errno.EHOSTUNREACH, "No route to host")

        monkeypatch.setattr(socket, "create_connection", unreachable)
        assert cli.main(["agent", "--broker", "broker.invalid:1883", "--max-ticks", "1"]) == 2
        assert "cannot reach broker" in caplog.text and "No route to host" in caplog.text

    def test_cloud_rules_with_wrong_type_exits_config_error(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"rule_id": "x", "metric_path": "app.fps", "comparator": "GT",
                                                "threshold": 1, "action": {"action": "StepFrequencyDown"},
                                                "cooldown_ticks": "3"}]}))
        result = run_cli("cloud", "--broker", "127.0.0.1:1", "--rules", str(rules), "--lake", str(tmp_path / "lake"))
        assert result.returncode == 1
        assert r"config error: rules[0].cooldown_ticks: must be an integer" in result.stderr
        assert "Traceback" not in result.stderr

    def test_cloud_bad_rules_exits_config_error(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"rules": [{"rule_id": "x", "metric_path": "no.such", "comparator": "GT",
                                                "threshold": 1, "action": {"action": "StepFrequencyDown"}}]}))
        result = run_cli("cloud", "--broker", "127.0.0.1:1", "--rules", str(rules), "--lake", str(tmp_path / "lake"))
        assert result.returncode == 1


def test_runtime_imports_load_no_stdlib_http_stack():
    code = (
        "import edgetelem.cli, edgetelem.scenario, sys; "
        "loaded = {'http.server', 'http.client', 'socketserver'} & set(sys.modules); "
        "assert not loaded, loaded"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_runtime_imports_need_no_numpy():
    code = "import edgetelem.cli, edgetelem.scenario, sys; assert 'numpy' not in sys.modules"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
