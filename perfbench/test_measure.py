"""Tests for the benchmark's own measurement logic.

    python3 -m pytest perfbench
"""

from types import SimpleNamespace

import pytest

from measure import (
    busy_ratio,
    covered,
    feedback_latencies,
    ingest_attributed,
    iqr_share,
    join_due,
    percentile,
    persisted_map,
    self_time,
    summarize_ns,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (99, None), (100, 9000), (999, 9000), (1000, 9900), (9999, 9900), (10000, 9990), (100000, 9999)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_larger_samples():
    for n in (100, 250, 1000, 4321, 10000):
        p_bp = tail_percentile(n)
        values = list(range(n))
        assert sum(1 for v in values if v > percentile(values, p_bp)) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 5000) == 3
    assert percentile(values, 10000) == 5
    assert percentile(values, 1) == 1
    assert percentile(list(range(1, 101)), 9000) == 90
    with pytest.raises(ValueError):
        percentile([], 5000)


def test_summary_flags_unsupported_p99():
    s = summarize_ns([1_000_000] * 500)
    assert s["p50_ms"] == 1.0 and s["n"] == 500
    assert s["p99_supported"] is False and s["p90_supported"] is True
    assert s["tail"]["p"] == 90


def test_join_due_to_persisted_time():
    due = {("d0", 5): 100, ("d0", 6): 200, ("d1", 5): 300}
    done = {("d0", 5): 150, ("d1", 5): 390, ("d0", 1): 10}  # ("d0", 1) is warm-up
    latencies, missing = join_due(due, done)
    assert sorted(latencies) == [50, 90]
    assert missing == [("d0", 6)]


def test_persisted_map_keys_on_device_and_seq_and_finds_duplicates():
    rows = [("d0", 0, 0, 1, 10), ("d1", 0, 1, 2, 20), ("d0", 0, 2, 3, 30)]
    done, duplicates = persisted_map(rows)
    assert done == {("d0", 0): 30, ("d1", 0): 20}
    assert duplicates == [("d0", 0)]


class _FakeService:
    """Stands in for CloudService: ingest fires the scripted actions."""

    def __init__(self, fires):
        self.dispatch_log = [("d9", SimpleNamespace(seq=0))]  # fired before the test
        self._fires = list(fires)
        self._next_seq = 1

    def ingest(self, payload, _transport):
        device_id, seq = payload
        for _ in range(self._fires.pop(0)):
            self.dispatch_log.append((device_id, SimpleNamespace(seq=self._next_seq)))
            self._next_seq += 1
        return SimpleNamespace(snapshot=SimpleNamespace(device=SimpleNamespace(device_id=device_id), seq=seq))


def test_trigger_attribution_from_dispatch_log_growth():
    service = _FakeService(fires=[2, 0, 1])
    triggers = {}
    for payload in (("d0", 7), ("d1", 3), ("d0", 8)):
        ingest_attributed(service, payload, None, triggers)
    assert triggers == {1: ("d0", 7), 2: ("d0", 7), 3: ("d0", 8)}


def test_feedback_joins_action_arrival_to_trigger_due_time():
    due = {("d0", 7): 1_000, ("d0", 8): 2_000}
    triggers = {1: ("d0", 7), 2: ("d0", 8), 3: ("d0", 1)}  # ("d0", 1) was not in the window
    received = {1: 1_500, 2: 2_700, 3: 900, 4: 5_000}  # action 4 has no trigger
    latencies, orphans = feedback_latencies(due, triggers, received)
    assert sorted(latencies) == [500, 700]
    assert orphans == 1


def test_self_time_subtracts_union_of_children():
    # children overlap each other and stick out of the parent
    assert covered([(10, 30), (20, 40), (90, 120)], 0, 100) == 40
    assert self_time(0, 100, [(10, 30), (20, 40), (90, 120)]) == 60
    assert self_time(0, 100, []) == 100


def test_busy_ratio_within_window():
    assert busy_ratio([(0, 50), (150, 250)], 100, 200) == 0.5
    assert busy_ratio([], 0, 10) == 0.0


def test_iqr_share_matches_statistics_quartiles():
    assert iqr_share([10, 10, 10, 10]) == 0.0
    assert iqr_share([8, 9, 10, 11, 12]) == pytest.approx(3.0 / 10)
