"""The three workloads.  Each has ``setup()``, ``run(seconds)`` and ``close()``.

``setup`` does everything a user pays once: starting the SUT, generating
inputs and warming caches and lazy imports.  ``run`` is the timed window
followed by the lake read-back that checks and times what was written.
"""

from __future__ import annotations

import hashlib
import json
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from edgetelem import agent, bus
from edgetelem.agent import decode_action
from edgetelem.cloud import CloudService, Lake, ModelStore, Transport, rules_from_dict
from edgetelem.simulator import builtin_profiles, make_model_blob

import fleet
import sysread
from measure import feedback_latencies, ingest_attributed, join_due, percentile, persisted_map
from spans import action_request

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# The socket workloads read their lake back in passes of 50 queries for a
# quarter of the run time; a short read-back would land on one moment of a
# shared machine whose speed swings by up to 2x over seconds.
READ_QUERIES = 50
READ_SHARE = 0.25


class BenchError(RuntimeError):
    pass


class SutProcess:
    """The SUT in a child process, driven over its stdin/stdout."""

    def __init__(self, mode: str, work: Path, trace: bool):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py"), "--mode", mode, "--work", str(work),
             "--src", str(SRC), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._reply(60)

    def _reply(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise BenchError("SUT process did not answer")
        return json.loads(line)

    def _send(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._reply(60)

    def count(self) -> int:
        return self._send("count")["count"]

    def stop(self) -> dict:
        self._send("stop")
        self.proc.wait(timeout=30)
        return json.loads((self.work / "sut-results.json").read_text())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # EOF stops the SUT
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _readings(persist_ns, ingest_rps: float, read: dict) -> dict:
    """The end-to-end readings of one measurement, in ms and 1/s."""
    return {
        "persist_p50_ms": percentile(persist_ns, 5000) / 1e6,
        "persist_p99_ms": percentile(persist_ns, 9900) / 1e6,
        "ingest_rps": ingest_rps,
        "query_p50_ms": percentile(read["query_ns"], 5000) / 1e6,
        "query_p90_ms": percentile(read["query_ns"], 9000) / 1e6,
        "scan_rps": read["scanned"] / (read["scan_ns"] / 1e9),
    }


def _dispatch_digest(dispatch_log) -> str:
    return hashlib.sha256(repr(dispatch_log).encode()).hexdigest()


class _Workload:
    """Shared plumbing: the seed, work directory, optional tracer and SUT."""

    cloud_in_process = False

    def __init__(self, seed: int, work: Path, tracer=None):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.sut = None
        work.mkdir(parents=True, exist_ok=True)

    def _sut_stop(self) -> dict:
        results = self.sut.stop()
        self.sut.close()
        self.sut = None
        return results

    def close(self) -> None:
        if self.sut is not None:
            self.sut.close()
            self.sut = None
        shutil.rmtree(self.work, ignore_errors=True)


class PubsubFleet(_Workload):
    """64 agents on one session, open loop at a fixed rate, SUT in a process."""

    DEVICES = 64
    RATE = 500  # rec/s, about a third of pub/sub saturation on 2 cores
    WARMUP_ROUNDS = 6

    def setup(self) -> None:
        self.sut = SutProcess("pubsub", self.work, self.tracer is not None)
        broker = tuple(self.sut.ready["broker"])
        store = tuple(self.sut.ready["store"])
        self.session = bus.connect(broker, "fleet")
        self.agents = fleet.make_agents(
            self.DEVICES, self.seed, fleet.SessionPublisher(self.session),
            fetch_fn=lambda model_id: agent.fetch_model(store, model_id),
        )
        by_id = {a.cfg.device.device_id: a for a in self.agents}
        self.received = {}

        def on_action(topic: str, payload: bytes) -> None:
            at = time.monotonic_ns()
            message = decode_action(payload)
            self.received[message.seq] = at
            if self.tracer is not None:
                self.tracer.event("bus.action_received", f"action/{message.seq}", at)
            by_id[topic.rsplit("/", 1)[1]].enqueue_action(message)

        self.session.subscribe("actions/+", on_action)
        for _ in range(self.WARMUP_ROUNDS):
            for a in self.agents:
                a.tick()
        self.warm = self.DEVICES * self.WARMUP_ROUNDS
        self._wait_persisted(self.warm, 30.0)

    def _wait_persisted(self, n: int, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        count = self.sut.count()
        while count < n and time.monotonic() < deadline:
            time.sleep(0.005)
            count = self.sut.count()
        return count

    def run(self, seconds: float) -> dict:
        period_ns = 1e9 / self.RATE
        n = int(seconds * self.RATE)
        due, late = {}, []
        cpu0, tw0 = sysread.cpu_times(), sysread.time_wait()
        start = time.monotonic_ns() + 1_000_000
        for k in range(n):
            due_ns = start + int(k * period_ns)
            now = time.monotonic_ns()
            if due_ns > now:
                time.sleep((due_ns - now) / 1e9)
                now = time.monotonic_ns()
            late.append(now - due_ns)
            snapshot = self.agents[k % self.DEVICES].tick()
            due[(snapshot.device.device_id, snapshot.seq)] = due_ns
        end = start + int(n * period_ns)
        self._wait_persisted(self.warm + n, 10.0)
        time.sleep(0.2)  # actions fired by the last records are still in flight
        steal = sysread.steal_share(cpu0, sysread.cpu_times())
        self.session.close()
        results = self._sut_stop()

        done, duplicates = persisted_map(results["rows"])
        persist_ns, missing = join_due(due, done)
        finished = [done[key] for key in due if key in done]
        triggers = {seq: (dev, dseq) for seq, dev, dseq in results["triggers"]}
        feedback_ns, orphans = feedback_latencies(due, triggers, self.received)
        devices = fleet.device_ids(self.DEVICES)
        lake = Lake(self.work / "lake")
        read = fleet.read_back(lake, devices, READ_QUERIES, self.seed, check_order=True, seconds=READ_SHARE * seconds)
        reports = [a.report() for a in self.agents]
        # Sustained rate: records of the window over the time from its start
        # until the last of them was persisted, so a backlog lowers it.
        ingest_rps = len(finished) / ((max(finished, default=end) - start) / 1e9)
        return {
            "window": (start, end),
            "readings": _readings(persist_ns, ingest_rps, read),
            "persist_ns": persist_ns,
            "feedback_ns": feedback_ns,
            "lateness_ns": late,
            "read": read,
            "attempted": n + len(read["query_ns"]),
            # A dead-lettered snapshot is one of the missing ones.
            "failed": len(missing) + read["query_wrong"],
            "checks": {
                "ids_dense": read["ids_dense"],
                "lake_holds_every_ingest": read["records"] == len(results["rows"]),
                "per_device_seq_order": read["order_violations"] == 0,
                "no_duplicate_delivery": not duplicates,
                "actions_attributed": orphans == 0,
                "queries_match_scan": read["query_wrong"] == 0,
            },
            "counts": {
                "records": len(results["rows"]),
                "dead_letters": results["dead_letters"],
                "dispatched": results["dispatched"],
                "dropped_actions": results["dropped_dispatches"],
                "lake_bytes": fleet.lake_bytes(self.work / "lake"),
                "placement_switches": sum(1 for e in results["dispatch_log"] if e[2] == "SetPlacement"),
                "applied": sum(r.actions_applied for r in reports),
                "rejected": sum(r.actions_rejected for r in reports),
                "dropped_snapshots": sum(r.dropped_snapshots for r in reports),
                "published": sum(r.published for r in reports),
                "received_actions": len(self.received),
            },
            "validity": {"steal_share": steal, "time_wait_start": tw0, "time_wait_end": sysread.time_wait()},
            "sut_spans": results["spans"],
        }

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()
        super().close()


class HttpIngest(_Workload):
    """Open loop over 2 client threads, one fresh connection per POST, no rules."""

    DEVICES = 64
    POOL_ROUNDS = 128  # 8192 snapshots, posted round-robin
    THREADS = 2
    RATE = 500  # POST/s, about half of what the 2 threads sustain back to back
    WARMUP_POSTS = 256
    TW_WAIT_MAX_S = 45.0

    def setup(self) -> None:
        self.sut = SutProcess("http", self.work, self.tracer is not None)
        self.address = tuple(self.sut.ready["http"])
        self.payloads = fleet.generate_payloads(self.DEVICES, self.POOL_ROUNDS, self.seed)
        self.warm = self.WARMUP_POSTS
        self.warm_ids = [bus.http_post_snapshot(self.address, p)["record_id"] for p in self.payloads[: self.warm]]

    def run(self, seconds: float) -> dict:
        n = int(seconds * self.RATE)
        # Every POST leaves a socket in TIME_WAIT for 60 s; wait until this
        # run's connections fit beside those of earlier runs.
        tw_wait_s, tw0 = sysread.wait_for_time_wait(int(1.2 * n), self.TW_WAIT_MAX_S)
        cpu0 = sysread.cpu_times()
        period_ns = 1e9 / self.RATE
        samples, late = [], []
        start = time.monotonic_ns() + 1_000_000

        def client(first: int) -> None:
            # Thread j sends POSTs j, j + THREADS, ... each when it is due.
            for k in range(first, n, self.THREADS):
                due_ns = start + int(k * period_ns)
                now = time.monotonic_ns()
                if due_ns > now:
                    time.sleep((due_ns - now) / 1e9)
                    now = time.monotonic_ns()
                late.append(now - due_ns)
                payload = self.payloads[(self.warm + k) % len(self.payloads)]
                try:
                    record_id = bus.http_post_snapshot(self.address, payload)["record_id"]
                except (bus.BusError, bus.RequestRejected, bus.BackendUnavailable, OSError):
                    record_id = None
                samples.append((due_ns, time.monotonic_ns(), record_id))

        # The main thread is one of the clients, so the generator has 2 threads.
        helpers = [threading.Thread(target=client, args=(j,)) for j in range(1, self.THREADS)]
        for t in helpers:
            t.start()
        client(0)
        for t in helpers:
            t.join()
        end = start + int(n * period_ns)
        steal = sysread.steal_share(cpu0, sysread.cpu_times())
        tw1 = sysread.time_wait()
        results = self._sut_stop()

        ok = [s for s in samples if s[2] is not None]
        ack_ids = self.warm_ids + [s[2] for s in ok]
        last = max((s[1] for s in ok), default=end)
        lake = Lake(self.work / "lake")
        read = fleet.read_back(
            lake, fleet.device_ids(self.DEVICES), READ_QUERIES, self.seed, check_order=False, seconds=READ_SHARE * seconds
        )
        persist_ns = [t1 - t0 for t0, t1, _ in ok]
        return {
            "window": (start, end),
            "readings": _readings(persist_ns, len(ok) / ((last - start) / 1e9), read),
            "persist_ns": persist_ns,
            "feedback_ns": None,
            "lateness_ns": late,
            "read": read,
            "attempted": len(samples) + len(read["query_ns"]),
            # A dead-lettered POST is one of those not acked.
            "failed": len(samples) - len(ok) + read["query_wrong"],
            "checks": {
                "ids_dense": read["ids_dense"],
                "lake_holds_every_ack": read["records"] == len(ack_ids),
                "ack_ids_unique": len(set(ack_ids)) == len(ack_ids),
                "queries_match_scan": read["query_wrong"] == 0,
            },
            "counts": {
                "records": read["records"],
                "dead_letters": results["dead_letters"],
                "dispatched": results["dispatched"],
                "dropped_actions": results["dropped_dispatches"],
                "lake_bytes": fleet.lake_bytes(self.work / "lake"),
                "placement_switches": 0,
                "applied": 0,
                "rejected": 0,
                "dropped_snapshots": 0,
                "posts": len(samples),
            },
            "validity": {"steal_share": steal, "time_wait_start": tw0, "time_wait_end": tw1,
                         "time_wait_wait_s": tw_wait_s},
            "sut_spans": results["spans"],
        }


class _LogicalClock:
    def __init__(self, tracer=None):
        self.now_ms = 0
        self.tracer = tracer

    def __call__(self) -> int:
        if self.tracer is not None:
            # CloudService reads its clock first thing under its lock.
            self.tracer.event("cloud.lock_acquired")
        return self.now_ms


class ReplayLake(_Workload):
    """One process, one thread, no sockets: ingest a fixed fleet history
    spanning 20 days on a logical clock, open loop at a fixed rate, then
    query and scan it back.  Repeats whole write+read cycles until the run
    time is used up.

    The rate is fixed, like pubsub_fleet's, because ingest run back to back
    was not repeatable on the shared 2-core machine this was set on: its
    rate swung 2x from run to run while paced ingest held within a few
    percent.  At the same rate as pubsub_fleet, the pair isolates the
    transport: replay_lake is the same cloud work without the bus."""

    cloud_in_process = True
    DEVICES = 8
    ROUNDS = 250  # 2000 records, 12.5 per device-day
    DAYS = 20
    RATE = 500  # rec/s, as pubsub_fleet; well below one core's ingest capacity
    QUERIES = 50
    EPOCH_MS = 1_614_556_800_000  # 2021-03-01T00:00Z
    WARMUP_RECORDS = 100

    def setup(self) -> None:
        self.payloads = fleet.generate_payloads(self.DEVICES, self.ROUNDS, self.seed)
        profiles = builtin_profiles()
        self.store = ModelStore.create(
            self.work / "models",
            {p.model_id: make_model_blob(p.model_id, p.artifact_size_bytes) for p in profiles.values()},
        )
        self.rules = rules_from_dict(fleet.RULES)
        self._cycle(self.work / "warm", self.payloads[: self.WARMUP_RECORDS], queries=2)

    def _cycle(self, lake_dir: Path, payloads, queries: int) -> dict:
        clock = _LogicalClock(self.tracer)
        dispatched_at = {}

        def dispatcher(_device_id, message) -> None:
            dispatched_at[message.seq] = time.monotonic_ns()

        if self.tracer is not None:
            dispatcher = self.tracer.traced(dispatcher, "cloud.dispatch", action_request)
        service = CloudService(Lake(lake_dir), self.rules, dispatcher=dispatcher, store=self.store, clock_ms=clock)
        step_ms = self.DAYS * fleet.DAY_MS // len(self.payloads)
        period_ns = 1e9 / self.RATE
        triggers, due, persist_ns, late = {}, {}, [], []
        start = time.monotonic_ns() + 1_000_000
        for i, payload in enumerate(payloads):
            due_ns = start + int(i * period_ns)
            now = time.monotonic_ns()
            if due_ns > now:
                time.sleep((due_ns - now) / 1e9)
                now = time.monotonic_ns()
            late.append(now - due_ns)
            clock.now_ms = self.EPOCH_MS + i * step_ms
            rec = ingest_attributed(service, payload, Transport.PUBSUB, triggers)
            persist_ns.append(time.monotonic_ns() - due_ns)
            due[(rec.snapshot.device.device_id, rec.snapshot.seq)] = due_ns
        write_ns = time.monotonic_ns() - start
        feedback_ns, orphans = feedback_latencies(due, triggers, dispatched_at)
        digest = fleet.lake_digest(lake_dir) + _dispatch_digest(service.dispatch_log)
        read = fleet.read_back(Lake(lake_dir), fleet.device_ids(self.DEVICES), queries, self.seed, check_order=True)
        cycle = {
            "readings": _readings(persist_ns, len(payloads) / (write_ns / 1e9), read),
            "records": len(payloads),
            "persist_ns": persist_ns,
            "feedback_ns": feedback_ns,
            "lateness_ns": late,
            "orphans": orphans,
            "digest": digest,
            "read": read,
            "dead_letters": service.dead_letters,
            "dispatched": service.dispatched,
            "dropped": service.dropped_dispatches,
            "switches": sum(1 for _d, m in service.dispatch_log if m.action.value == "SetPlacement"),
            "lake_bytes": fleet.lake_bytes(lake_dir),
        }
        shutil.rmtree(lake_dir)
        return cycle

    def run(self, seconds: float) -> dict:
        cpu0 = sysread.cpu_times()
        start = time.monotonic_ns()
        cycles = []
        while not cycles or time.monotonic_ns() - start < seconds * 1e9:
            cycles.append(self._cycle(self.work / f"lake{len(cycles)}", self.payloads, self.QUERIES))
        end = time.monotonic_ns()
        steal = sysread.steal_share(cpu0, sysread.cpu_times())
        reads = [c["read"] for c in cycles]
        read = {
            "scanned": sum(r["scanned"] for r in reads),
            "scan_ns": sum(r["scan_ns"] for r in reads),
            "query_ns": [q for r in reads for q in r["query_ns"]],
            "query_wrong": sum(r["query_wrong"] for r in reads),
            "query_returned": sum(r["query_returned"] for r in reads),
        }
        first = cycles[0]
        persist_ns = [p for c in cycles for p in c["persist_ns"]]
        # Each cycle repeats the same work: report the median cycle, and
        # pool the samples of the tails.
        readings = {k: statistics.median(c["readings"][k] for c in cycles) for k in first["readings"]}
        readings["persist_p99_ms"] = percentile(persist_ns, 9900) / 1e6
        readings["query_p90_ms"] = percentile(read["query_ns"], 9000) / 1e6
        return {
            "window": (start, end),
            "readings": readings,
            "persist_ns": persist_ns,
            "feedback_ns": [f for c in cycles for f in c["feedback_ns"]],
            "lateness_ns": [t for c in cycles for t in c["lateness_ns"]],
            "read": read,
            "attempted": sum(c["records"] + self.QUERIES for c in cycles),
            "failed": sum(c["dead_letters"] for c in cycles) + read["query_wrong"],
            "checks": {
                "ids_dense": all(r["ids_dense"] for r in reads),
                "lake_holds_every_ingest": all(r["records"] == c["records"] for r, c in zip(reads, cycles)),
                "per_device_seq_order": all(r["order_violations"] == 0 for r in reads),
                "lake_digest_repeats": all(c["digest"] == first["digest"] for c in cycles),
                "actions_attributed": all(c["orphans"] == 0 for c in cycles),
                "queries_match_scan": read["query_wrong"] == 0,
            },
            "counts": {
                "records": first["records"],
                "dead_letters": first["dead_letters"],
                "dispatched": first["dispatched"],
                "dropped_actions": first["dropped"],
                "lake_bytes": first["lake_bytes"],
                "placement_switches": first["switches"],
                "applied": 0,
                "rejected": 0,
                "dropped_snapshots": 0,
                "cycles": len(cycles),
                "lake_digest": first["digest"][:16],
            },
            "validity": {"steal_share": steal, "time_wait_start": sysread.time_wait(),
                         "time_wait_end": sysread.time_wait()},
            "sut_spans": None,
        }


WORKLOADS = {"pubsub_fleet": PubsubFleet, "http_ingest": HttpIngest, "replay_lake": ReplayLake}
