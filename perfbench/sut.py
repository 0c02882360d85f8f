"""The system under test, run in its own process for the socket workloads.

``pubsub`` wires Broker, a cloud session, CloudService with a lake on disk
and a ModelStoreHttpServer the way ``edgetelem cloud`` does.  ``http`` runs
IngestHttpServer in front of ``CloudService.http_backend`` with no rules.

Protocol: one JSON line on stdout with the listening addresses, then one
JSON reply line per stdin command: ``count`` (records ingested so far) or
``stop`` (shut down and write the results file).  EOF on stdin also stops.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("pubsub", "http"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    from edgetelem import bus, cloud
    from edgetelem.cloud import CloudService, IngestRejected, Lake, ModelStore, ModelStoreHttpServer, Transport
    from edgetelem.simulator import builtin_profiles, make_model_blob

    from fleet import RULES
    from measure import ingest_attributed
    from spans import Tracer, action_request, record_request

    work = Path(args.work)
    tracer = Tracer() if args.trace else None
    clock_ms = None
    if tracer is not None:
        import layers

        layers.install_cloud(tracer)

        def clock_ms():
            # CloudService reads its clock first thing under its lock.
            tracer.event("cloud.lock_acquired")
            return int(time.time() * 1000)

    rows, triggers, rejected = [], {}, [0]
    closers = []
    if args.mode == "pubsub":
        profiles = builtin_profiles()
        store = ModelStore.create(
            work / "models",
            {p.model_id: make_model_blob(p.model_id, p.artifact_size_bytes) for p in profiles.values()},
        )
        store_server = ModelStoreHttpServer(store).start()
        broker = bus.Broker().start()
        session = bus.connect(broker.address, "cloud-service")
        dispatcher = cloud.make_bus_dispatcher(session)
        if tracer is not None:
            dispatcher = tracer.traced(dispatcher, "cloud.dispatch", action_request)
        service = CloudService(
            lake=Lake(work / "lake"),
            rules=cloud.rules_from_dict(RULES),
            dispatcher=dispatcher,
            store=store,
            clock_ms=clock_ms,
        )

        def on_snapshot(_topic: str, payload: bytes):
            enter = time.monotonic_ns()
            try:
                rec = ingest_attributed(service, payload, Transport.PUBSUB, triggers)
            except IngestRejected:
                rejected[0] += 1
                return None
            rows.append((rec.snapshot.device.device_id, rec.snapshot.seq, rec.record_id, enter, time.monotonic_ns()))
            return rec

        if tracer is not None:
            on_snapshot = tracer.traced(on_snapshot, "bus.deliver", record_request)
        session.subscribe("telemetry/+", on_snapshot)
        ready = {"broker": list(broker.address), "store": list(store_server.address)}
        closers = [session.close, broker.stop, store_server.stop]
    else:
        service = CloudService(lake=Lake(work / "lake"), rules=cloud.rules_from_dict({}), clock_ms=clock_ms)
        server = bus.IngestHttpServer(service.http_backend).start()
        ready = {"http": list(server.address)}
        closers = [server.stop]

    print(json.dumps(ready), flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "count":
            print(json.dumps({"count": len(rows) + rejected[0]}), flush=True)
        elif command == "stop":
            break
    for close in closers:
        close()
    results = {
        "rows": rows,
        "rejected": rejected[0],
        "triggers": [[seq, dev, dseq] for seq, (dev, dseq) in triggers.items()],
        "dispatch_log": [[dev, m.seq, m.action.value] for dev, m in service.dispatch_log],
        "dispatched": service.dispatched,
        "dropped_dispatches": service.dropped_dispatches,
        "dead_letters": service.dead_letters,
        "spans": tracer.spans if tracer is not None else [],
    }
    (work / "sut-results.json").write_text(json.dumps(results))
    print(json.dumps({"done": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
