"""Single entry point with one subcommand per deployable role.

stdout carries machine-parseable output only (report JSON, CSV); everything
else goes to stderr via logging.  Exit codes: 0 success, 1 configuration
error, 2 network/usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from functools import partial, reduce
from operator import getitem
from pathlib import Path

from . import agent as agent_mod
from . import bus
from .bandwidth import DEFAULT_TRACE_CONFIG, NetTrace, trace_config_from_dict
from .cloud import (
    CloudService,
    IngestRejected,
    Lake,
    LakeError,
    ModelStore,
    ModelStoreHttpServer,
    Transport,
    make_bus_dispatcher,
    rules_from_dict,
)
from .scenario import ScenarioError, load_scenario, run_scenario
from .simulator import ConfigError, Platform, builtin_profiles, config_from_dict, make_model_blob
from .telemetry import WIRE_PATHS, DeviceIdentity, snapshot_to_wire

log = logging.getLogger("edgetelem")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NETWORK = 2

LAKE_CSV_COLUMNS = (*(".".join(path) for path in WIRE_PATHS), "ingest_time_ms", "transport")


def _lake_csv_row(rec) -> list:
    wire = snapshot_to_wire(rec.snapshot)
    return [*(reduce(getitem, path, wire) for path in WIRE_PATHS), rec.ingest_time_ms, rec.transport.value]


def _setup_logging() -> None:
    level = os.environ.get("EDGETELEM_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _parse_address(text: str) -> tuple:
    """``(host, port)`` of ``HOST:PORT`` or ``[IPV6]:PORT``, the port in 1-65535."""
    host, _, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not host or not (port.isascii() and port.isdigit()) or not 0 < int(port) <= 65535:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


def _port(text: str) -> int:
    """A port to bind, 0 for any free one; any other value is a usage error."""
    if not (text.isascii() and text.isdigit()) or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"port must be 0-65535, got {text!r}")
    return int(text)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def cmd_broker(args) -> int:
    try:
        broker = bus.Broker(args.host, args.port).start()
    except OSError as e:
        log.error("cannot bind broker on %s:%d: %s", args.host, args.port, e)
        return EXIT_NETWORK
    host, port = broker.address
    log.warning("broker listening on %s:%d", host, port)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        broker.stop()
    return EXIT_OK


def _cloud_session(address: tuple, on_snapshot):
    session = bus.connect(address, "cloud-service")
    session.subscribe("telemetry/+", on_snapshot)
    return session


def cmd_cloud(args) -> int:
    try:
        rules = rules_from_dict(_read_json(args.rules)) if args.rules else rules_from_dict({})
        store = ModelStore(args.store) if args.store else None
    except (OSError, ValueError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    session = None  # replaced after a reconnect; actions go out through the current one
    try:
        service = CloudService(
            lake=Lake(args.lake),
            rules=rules,
            dispatcher=lambda device_id, message: make_bus_dispatcher(session)(device_id, message),
            store=store,
        )
    except (LakeError, OSError) as e:
        log.error("lake error: %s", e)
        return EXIT_CONFIG

    def on_snapshot(_topic: str, payload: bytes) -> None:
        try:
            service.ingest(payload, Transport.PUBSUB)
        except IngestRejected as e:
            log.info("dead-lettered snapshot: %s", e)

    try:
        address = _parse_address(args.broker)
        session = _cloud_session(address, on_snapshot)
    except (bus.BusError, ValueError) as e:
        log.error("cannot reach broker: %s", e)
        return EXIT_NETWORK
    try:
        http_server = bus.IngestHttpServer(service.http_backend, args.http_host, args.http_port).start()
    except OSError as e:
        log.error("cannot bind ingest endpoint: %s", e)
        return EXIT_NETWORK
    host, port = http_server.address
    log.warning("cloud up: lake=%s ingest=http://%s:%d/ingest", args.lake, host, port)
    delay = agent_mod.RECONNECT_BASE_S
    try:
        while True:  # while the broker is down, dispatches raise DispatchDown and are counted
            time.sleep(delay)
            if not session.closed:
                continue
            try:
                session = _cloud_session(address, on_snapshot)
                delay = agent_mod.RECONNECT_BASE_S
            except bus.BusError as e:
                delay = min(agent_mod.RECONNECT_CAP_S, delay * 2)
                log.warning("broker down (%s); retry in %.1fs", e, delay)
    except KeyboardInterrupt:
        http_server.stop()
        session.close()
    return EXIT_OK


def cmd_agent(args) -> int:
    try:
        config = config_from_dict(_read_json(args.platform)) if args.platform else None
        trace_cfg = trace_config_from_dict(_read_json(args.trace)) if args.trace else DEFAULT_TRACE_CONFIG
        profiles = builtin_profiles()
        if args.model not in profiles:
            raise ConfigError("--model", f"unknown model {args.model!r}")
        cfg = agent_mod.AgentConfig(
            device=DeviceIdentity(device_id=args.device),
            sample_period_ms=args.period,
            max_ticks=args.max_ticks,
        )
        platform = Platform(config, profiles[args.model])
    except (OSError, ValueError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG

    try:
        broker_address = _parse_address(args.broker)
        store_address = _parse_address(args.store) if args.store else None
    except ValueError as e:
        log.error("usage error: %s", e)
        return EXIT_NETWORK
    publisher = agent_mod.BusPublisher(broker_address, args.device, on_action=lambda m: agent.enqueue_action(m))
    try:
        publisher._ensure_session()
    except bus.BusError as e:
        log.error("cannot reach broker: %s", e)
        return EXIT_NETWORK

    fetch_fn = None
    if store_address is not None:
        fetch_fn = lambda model_id: agent_mod.fetch_model(store_address, model_id)

    agent = agent_mod.TelemetryAgent(
        cfg, platform, publisher, fetch_fn=fetch_fn, net_source=NetTrace(trace_cfg), profiles=profiles
    )
    try:
        report = agent.run()
    except KeyboardInterrupt:
        report = agent.report()
    print(json.dumps(asdict(report)))
    return EXIT_OK


def cmd_model_store(args) -> int:
    root = Path(args.root)
    try:
        if args.init:
            blobs = {
                p.model_id: make_model_blob(p.model_id, p.artifact_size_bytes)
                for p in builtin_profiles().values()
            }
            store = ModelStore.create(root, blobs)
        else:
            store = ModelStore(root)
    except (OSError, ValueError) as e:
        log.error("config error: %s", e)
        return EXIT_CONFIG
    try:
        server = ModelStoreHttpServer(store, args.host, args.port).start()
    except OSError as e:
        log.error("cannot bind model store: %s", e)
        return EXIT_NETWORK
    host, port = server.address
    log.warning("model store serving %s on %s:%d", store.ids(), host, port)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        server.stop()
    return EXIT_OK


def cmd_scenario(args) -> int:
    try:
        spec = load_scenario(args.spec)
    except (ScenarioError, ValueError) as e:
        log.error("invalid scenario: %s", e)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        report = run_scenario(spec, out_dir)
    except Exception as e:  # component failure: flag a partial report
        log.error("scenario failed: %s", e)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(json.dumps({"partial": True, "error": str(e)}, indent=2) + "\n")
        return EXIT_CONFIG
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_bench_latency(parser, args) -> int:
    if args.n < 1:
        parser.error("-n must be >= 1")
    if not 8 <= args.payload <= bus.MAX_PAYLOAD:
        parser.error(f"--payload must be between 8 and {bus.MAX_PAYLOAD}")
    delay_fn = None
    if args.delay:
        try:
            delay_fn = bus.DelaySpec.parse(args.delay).sampler(args.delay_seed)
        except ValueError as e:
            parser.error(str(e))

    if args.transport == "pubsub":
        broker = bus.Broker().start()
        responder = bus.EchoResponder(broker.address, "bench", delay_fn=delay_fn)
        try:
            report = bus.pubsub_latency_probe(broker.address, args.n, args.payload, probe_id="bench")
        finally:
            responder.close()
            broker.stop()
    else:
        server = bus.ProbeHttpServer(delay_fn=delay_fn).start()
        try:
            report = bus.http_latency_probe(server.address, args.n, args.payload)
        finally:
            server.stop()

    if report.stats is None:
        log.error("all probes failed: %s", report.statuses)
        return EXIT_NETWORK
    s = report.stats
    print(f"{args.transport},{s.n},{args.payload},{s.mean_ms:.3f},{s.min_ms:.3f},{s.max_ms:.3f},{s.stddev_ms:.3f}")
    if not report.ok:
        for i, status in enumerate(report.statuses):
            if status != "ok":
                log.error("probe %d: %s", i, status)
        return EXIT_NETWORK
    return EXIT_OK


def cmd_lake_export(parser, args) -> int:
    if args.to_ms <= args.from_ms:
        parser.error("--to must be greater than --from")
    if not os.path.isdir(args.lake):  # a Lake would create it
        log.error("lake error: no lake directory at %s", args.lake)
        return EXIT_CONFIG
    lake = Lake(args.lake)
    writer = csv.writer(sys.stdout)
    writer.writerow(LAKE_CSV_COLUMNS)
    try:
        records = lake.query(args.device, args.from_ms, args.to_ms)
    except Exception as e:
        log.error("lake error: %s", e)
        return EXIT_CONFIG
    writer.writerows(_lake_csv_row(rec) for rec in records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edgetelem", description="Edge AI telemetry pipeline, desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("broker", help="run the pub/sub message broker")
    p.set_defaults(func=cmd_broker)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=1883)

    p = sub.add_parser("cloud", help="run the cloud ingest/rules/dispatch service")
    p.set_defaults(func=cmd_cloud)
    p.add_argument("--broker", required=True, help="broker address HOST:PORT")
    p.add_argument("--rules", help="rule-set JSON file")
    p.add_argument("--lake", default="lake", help="data lake directory")
    p.add_argument("--store", help="model store root (resolves SwapModel digests)")
    p.add_argument("--http-host", default="127.0.0.1")
    p.add_argument("--http-port", type=_port, default=8080)

    p = sub.add_parser("agent", help="run one edge telemetry agent")
    p.set_defaults(func=cmd_agent)
    p.add_argument("--broker", required=True, help="broker address HOST:PORT")
    p.add_argument("--device", default="dev0")
    p.add_argument("--platform", help="platform config JSON file")
    p.add_argument("--trace", help="network trace config JSON file")
    p.add_argument("--store", help="model store address HOST:PORT")
    p.add_argument("--model", default="yolov3")
    p.add_argument("--period", type=int, default=1000, help="sample period in ms")
    p.add_argument("--max-ticks", type=int, default=None)

    p = sub.add_parser("model-store", help="serve model blobs over HTTP")
    p.set_defaults(func=cmd_model_store)
    p.add_argument("--root", required=True)
    p.add_argument("--init", action="store_true", help="populate the store with the built-in models")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8090)

    p = sub.add_parser("scenario", help="run a scripted end-to-end scenario in-process")
    p.set_defaults(func=cmd_scenario)
    p.add_argument("spec", help="scenario spec JSON file")
    p.add_argument("--out", default="scenario_out", help="output directory (report + lake)")

    p = sub.add_parser("bench-latency", help="measure send-to-ack round trips")
    p.set_defaults(func=partial(cmd_bench_latency, p))
    p.add_argument("--transport", choices=("pubsub", "http"), required=True)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--payload", type=int, default=256)
    p.add_argument("--delay", help="injected server delay, e.g. normal:50:5 or constant:25")
    p.add_argument("--delay-seed", type=int, default=0)

    p = sub.add_parser("lake", help="data lake utilities")
    lake_sub = p.add_subparsers(dest="lake_command", required=True)
    p = lake_sub.add_parser("export", help="export records as CSV on stdout")
    p.set_defaults(func=partial(cmd_lake_export, p))
    p.add_argument("--lake", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--from", dest="from_ms", type=int, default=0)
    p.add_argument("--to", dest="to_ms", type=int, default=1 << 62)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
