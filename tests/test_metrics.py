import io
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liveflow.metrics import (
    QueryRecord,
    QuerySchedule,
    stability_score,
    summarize,
    write_record,
    write_summary,
)


class TestStability:
    def test_partial_overlap(self):
        score = stability_score({"a", "b", "d"}, {"a", "b", "c"})
        assert score == pytest.approx(66.67, abs=0.01)

    def test_identical_sets(self):
        assert stability_score({1, 2, 3}, {1, 2, 3}) == 100.0

    def test_disjoint_sets(self):
        assert stability_score({1, 2}, {3, 4}) == 0.0

    def test_empty_current_scores_full(self):
        assert stability_score(set(), {1, 2}) == 100.0

    @given(
        cur=st.sets(st.integers(min_value=0, max_value=50), max_size=30),
        prev=st.sets(st.integers(min_value=0, max_value=50), max_size=30),
    )
    def test_always_a_percentage(self, cur, prev):
        assert 0.0 <= stability_score(cur, prev) <= 100.0


class TestSchedule:
    def test_first_event_sets_baseline_without_firing(self):
        sched = QuerySchedule(10)
        assert sched.observe(100) is False

    def test_fires_only_for_first_crossing_event(self):
        sched = QuerySchedule(10)
        sched.observe(100)
        fired = [ts for ts in (105, 110, 111, 112, 125) if sched.observe(ts)]
        # 111 is the first event past 100+10; then 125 past 111+10
        assert fired == [111, 125]

    def test_equal_boundary_does_not_fire(self):
        sched = QuerySchedule(10)
        sched.observe(0)
        assert sched.observe(10) is False
        assert sched.observe(11) is True

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            QuerySchedule(0)


def _record(**kw):
    base = dict(
        trigger_ts=10,
        events_ingested=100,
        flow_value=7,
        latency_ms=1.5,
        stability_pct=50.0,
        events_per_sec=1234.5,
    )
    base.update(kw)
    return QueryRecord(**base)


def _segments(*rates):
    """Query records whose segments ran at the given events/s (None for a
    zero-duration segment)."""
    return [_record(events_per_sec=r) for r in rates]


class TestThroughputReport:
    """The ingestion-rate part of :func:`summarize`."""

    def test_single_segment(self):
        rep = summarize(_segments(500.0), total_events=1000)
        assert rep["median_events_per_sec"] == 500.0
        assert rep["min_events_per_sec"] == 500.0
        assert rep["max_events_per_sec"] == 500.0
        assert rep["zero_duration_segments"] == 0

    def test_two_segments_median_and_range(self):
        rep = summarize(_segments(100.0, 300.0), total_events=400)
        assert rep["median_events_per_sec"] == 200.0
        assert (rep["min_events_per_sec"], rep["max_events_per_sec"]) == (100.0, 300.0)

    def test_zero_duration_segment_excluded_and_flagged(self):
        rep = summarize(_segments(100.0, None), total_events=150)
        assert rep["median_events_per_sec"] == 100.0
        assert rep["zero_duration_segments"] == 1

    def test_all_degenerate(self):
        rep = summarize(_segments(None), total_events=5)
        assert rep["median_events_per_sec"] is None
        assert rep["zero_duration_segments"] == 1


class TestFormats:
    def test_jsonl_record_round_trips(self):
        buf = io.StringIO()
        write_record(buf, "jsonl", _record())
        obj = json.loads(buf.getvalue())
        assert obj["type"] == "query"
        assert obj["flow_value"] == 7
        assert obj["stability_pct"] == 50.0

    def test_jsonl_none_fields(self):
        buf = io.StringIO()
        write_record(buf, "jsonl", _record(stability_pct=None, events_per_sec=None))
        obj = json.loads(buf.getvalue())
        assert obj["stability_pct"] is None

    def test_tsv_record_blank_for_none(self):
        buf = io.StringIO()
        write_record(buf, "tsv", _record(stability_pct=None))
        fields = buf.getvalue().rstrip("\n").split("\t")
        assert fields[0] == "10"
        assert fields[2] == "7"
        assert fields[4] == ""

    def test_summary_lines(self):
        records = [_record(), _record(events_per_sec=None, latency_ms=2.5)]
        summary = summarize(records, total_events=100)
        assert summary["queries"] == 2
        assert summary["zero_duration_segments"] == 1
        assert summary["mean_latency_ms"] == pytest.approx(2.0)
        jbuf = io.StringIO()
        write_summary(jbuf, "jsonl", summary)
        assert json.loads(jbuf.getvalue())["type"] == "summary"
        tbuf = io.StringIO()
        write_summary(tbuf, "tsv", summary)
        assert tbuf.getvalue().startswith("# summary ")

    def test_summarize_empty(self):
        summary = summarize([], total_events=0)
        assert summary["queries"] == 0
        assert summary["median_events_per_sec"] is None
        assert summary["mean_latency_ms"] is None
