"""The kill test: a lake keeps its invariants when its ingest loop is SIGKILLed.

An ingest loop runs in a child process and is killed at seeded points: while
its service opens the lake, which may cut off a torn tail, and between or
inside appends.  After each kill the lake is opened again through a
:class:`CloudService`, which must start, and every device is scanned.
Record ids must stay dense and each device's ingest times non-decreasing.
The dead-letter file must stay whole lines and hold every torn tail, one the
test appended or one a kill left, and each no more times than it was torn.

The children are forked from a forkserver that has imported the package, so
each starts without paying its import and inherits no thread of the test
process.  A child imports this module to find its target, so the module
imports only the package, the standard library and ``conftest``.
"""

import collections
import itertools
import json
import multiprocessing
import multiprocessing.forkserver
import random
import signal
import time

from conftest import make_snapshot
from edgetelem.cloud import CloudService, IngestRejected, Lake, Transport
from edgetelem.telemetry import encode_snapshot

KILLS = 60
DEVICES = ("dev0", "dev1", "dev2")
_HOUR_MS = 3_600_000
_START_MS = 1_614_556_800_000  # 2021-03-01T00:00Z


def ingest_until_killed(root, payloads, start_ms, step_ms, signal_at, ready):
    """Open the lake at ``root`` through a service and ingest ``payloads``.

    Sends on ``ready`` before step ``signal_at``: 0 is opening the lake,
    ``i`` ingesting the ``i``-th payload.  Then waits on ``ready`` to be killed.
    """
    if signal_at == 0:
        ready.send_bytes(b"")
    service = CloudService(Lake(root), clock_ms=itertools.count(start_ms, step_ms).__next__)
    for i, payload in enumerate(payloads, 1):
        if i == signal_at:
            ready.send_bytes(b"")
        try:
            service.ingest(payload, Transport.HTTP)
        except IngestRejected:
            pass
    ready.recv_bytes()  # blocks until the kill; EOFError if the test ends first


def random_payloads(rng: random.Random, seqs: dict) -> list:
    payloads = []
    for _ in range(rng.randint(4, 16)):
        if rng.random() < 0.1:
            payloads.append(b'{"device_id":"dev0"')  # dead-lettered
            continue
        device_id = rng.choice(DEVICES)
        seqs[device_id] += 1
        payloads.append(encode_snapshot(make_snapshot(device_id=device_id, seq=seqs[device_id])))
    return payloads


def tear_newest_partition(rng: random.Random, lake: Lake) -> None:
    """Append a prefix of the newest partition's last line, as a crash mid-append leaves it."""
    newest = [paths[-1] for paths in map(lake._partitions, DEVICES) if paths]
    if newest:
        path = rng.choice(newest)
        last = path.read_bytes().rstrip(b"\n").rpartition(b"\n")[2]
        if last:
            with open(path, "ab") as fh:
                fh.write(last[: rng.randrange(1, len(last))])


def torn_tails(root) -> list:
    """The ``(partition, offset, payload_hex)`` of each partition's torn trailing fragment."""
    tails = []
    for path in sorted(root.glob("*/*.jsonl")):
        data = path.read_bytes()
        cut = data.rfind(b"\n") + 1
        if cut < len(data):
            tails.append((f"{path.parent.name}/{path.name}", cut, data[cut:].hex()))
    return tails


def check_lake(root, tears: list) -> None:
    """``tears``: every torn tail the lake has held, once per tear."""
    lake = CloudService(Lake(root)).lake  # the service starts, and cuts off a torn tail
    ids = []
    for device_id in DEVICES:
        records = lake.scan(device_id)
        device_ids = [r.record_id for r in records]
        assert device_ids == sorted(device_ids), device_id
        times = [r.ingest_time_ms for r in records]
        assert times == sorted(times), device_id
        ids += device_ids
    assert sorted(ids) == list(range(len(ids)))
    dead = lake.root / Lake.DEAD_LETTER_FILE
    entries = [json.loads(line) for line in dead.read_bytes().splitlines()] if dead.exists() else []
    tails = [(e["partition"], e["offset"], e["payload_hex"]) for e in entries if e.get("error") == "torn tail"]
    assert set(tails) == set(tears), "a torn tail was lost, or one never torn was dead-lettered"
    assert not collections.Counter(tails) - collections.Counter(tears), "a torn tail was dead-lettered twice"


def run_and_kill(ctx, rng: random.Random, root, payloads) -> None:
    parent_end, child_end = ctx.Pipe()
    start_ms = _START_MS + rng.randrange(10 * 24 * _HOUR_MS)  # may be behind the lake's last ingest
    args = (str(root), payloads, start_ms, rng.randint(1, 3 * _HOUR_MS), rng.randint(0, len(payloads)), child_end)
    child = ctx.Process(target=ingest_until_killed, args=args, daemon=True)
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(30), "the child did not reach its kill point"
        parent_end.recv_bytes()
        time.sleep(rng.uniform(0.0, 0.0003))
    finally:
        child.kill()
        child.join()
        parent_end.close()
    assert child.exitcode == -signal.SIGKILL, "the ingest loop failed before its kill"
    child.close()


def test_sigkilled_ingest_keeps_the_lake_invariants(tmp_path):
    rng = random.Random(2014)
    seqs, tears, torn = dict.fromkeys(DEVICES, 0), [], []
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["edgetelem.cloud"])
    try:
        for _ in range(KILLS):
            run_and_kill(ctx, rng, tmp_path, random_payloads(rng, seqs))
            tears += torn + [tail for tail in torn_tails(tmp_path) if tail not in torn]  # and the kill's tear
            check_lake(tmp_path, tears)
            torn = []
            if rng.random() < 0.3:
                tear_newest_partition(rng, Lake(tmp_path))
                torn = torn_tails(tmp_path)
    finally:
        multiprocessing.forkserver._forkserver._stop()
    assert sum(len(Lake(tmp_path).scan(d)) for d in DEVICES) > 2 * KILLS  # the children stored records before their kills
