import time
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liveflow.events import (
    MAX_SLEEP_S,
    StreamFormatError,
    StreamOrderError,
    TopologyEvent,
    format_event_line,
    parse_event_line,
    read_event_log,
    sliding_window_transform,
    throttle,
)


class TestEventType:
    def test_fields_cannot_be_assigned(self):
        ev = TopologyEvent(1, 2, 3, 4)
        with pytest.raises(AttributeError):
            ev.ts = 5
        assert ev.ts == 1

    def test_equal_events_hash_equal_and_key_a_dict(self):
        a, b = TopologyEvent(1, 2, 3, 4), TopologyEvent(1, 2, 3, 4)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: "seen"}[b] == "seen"
        assert TopologyEvent(1, 2, 3, -4) != a

    def test_repr_names_the_four_fields(self):
        assert repr(TopologyEvent(1, 2, 3, -4)) == "TopologyEvent(ts=1, src=2, dst=3, delta=-4)"

    def test_event_is_a_4_tuple(self):
        ev = TopologyEvent(1, 2, 3, 4)
        assert ev == (1, 2, 3, 4)
        ts, src, dst, delta = ev
        assert (ts, src, dst, delta) == (ev.ts, ev.src, ev.dst, ev.delta)


class TestParse:
    def test_full_line(self):
        assert parse_event_line("a 100 3 7 5") == TopologyEvent(100, 3, 7, 5)

    def test_bare_line_defaults_to_unit_add(self):
        assert parse_event_line("100 3 7") == TopologyEvent(100, 3, 7, 1)

    def test_delete_marker_negates_weight(self):
        assert parse_event_line("d 250 3 7 5") == TopologyEvent(250, 3, 7, -5)

    @pytest.mark.parametrize(
        "line",
        ["", "a 1 2", "x 1 2 3", "a 1 2 3 4 5", "a one 2 3", "a 1 2 3 nope",
         "a \u0663 1_0 +5", "-0 1 2 0_1"],
    )
    def test_malformed_lines(self, line):
        with pytest.raises(StreamFormatError):
            parse_event_line(line)

    @pytest.mark.parametrize(
        "line,message",
        [("a -1 2 3", "timestamp and vertex ids must be non-negative"),
         ("a 1 2 3 -4", "weight must be positive, got -4"),
         ("a 1 2 3 -0", "weight must be positive, got 0"),
         ("a 1 2 +3 x", "non-integer weight in 'a 1 2 +3 x'")],
    )
    def test_signed_lines_keep_their_message(self, line, message):
        with pytest.raises(StreamFormatError) as exc:
            parse_event_line(line)
        assert str(exc.value) == message

    # Spellings int() accepts that the grammar does not: a sign, "_" digit
    # separators, and decimal digits of other scripts (Arabic-Indic, fullwidth).
    @given(
        fields=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=10**6).map(str),
                st.integers(min_value=0, max_value=10**6).map(lambda n: f"+{n}"),
                st.integers(min_value=10, max_value=10**6).map(lambda n: f"{n // 10}_{n % 10}"),
                st.integers(min_value=0, max_value=9).map(lambda d: chr(0x660 + d)),
                st.integers(min_value=0, max_value=9).map(lambda d: chr(0xFF10 + d)),
                st.just("-0"),
            ),
            min_size=4,
            max_size=4,
        ),
        marker=st.sampled_from(["", "a ", "d "]),
    )
    def test_numeric_fields_are_ascii_digits(self, fields, marker):
        line = marker + " ".join(fields)
        if all(f.isascii() and f.isdigit() for f in fields) and int(fields[3]) > 0:
            sign = -1 if marker == "d " else 1
            ts, src, dst, w = map(int, fields)
            assert parse_event_line(line) == TopologyEvent(ts, src, dst, sign * w)
        else:
            with pytest.raises(StreamFormatError):
                parse_event_line(line)

    @pytest.mark.parametrize("line", ["a 1 2 3 0", "a 1 2 3 -4"])
    def test_nonpositive_weight_rejected(self, line):
        with pytest.raises(StreamFormatError):
            parse_event_line(line)

    def test_error_carries_line_number(self):
        with pytest.raises(StreamFormatError) as exc:
            parse_event_line("bogus line", line_no=42)
        assert exc.value.line_no == 42
        assert "42" in str(exc.value)

    @given(
        ts=st.integers(min_value=0, max_value=2**63),
        src=st.integers(min_value=0, max_value=2**63),
        dst=st.integers(min_value=0, max_value=2**63),
        weight=st.integers(min_value=1, max_value=2**31),
        delete=st.booleans(),
    )
    def test_round_trip(self, ts, src, dst, weight, delete):
        ev = TopologyEvent(ts, src, dst, -weight if delete else weight)
        assert parse_event_line(format_event_line(ev)) == ev


class TestReadLog:
    def test_skips_comments_and_blanks(self):
        lines = ["# header", "", "a 1 2 3 4", "   ", "# mid", "d 2 2 3 4"]
        events = list(read_event_log(lines))
        assert events == [TopologyEvent(1, 2, 3, 4), TopologyEvent(2, 2, 3, -4)]

    @given(
        items=st.lists(
            st.one_of(
                st.tuples(
                    st.just("event"),
                    st.integers(min_value=0, max_value=5),  # timestamp gap
                    st.integers(min_value=0, max_value=99),
                    st.integers(min_value=0, max_value=99),
                    st.integers(min_value=-3, max_value=3).filter(bool),
                    st.booleans(),  # write the optional marker and weight
                    st.lists(st.sampled_from(["", " ", "\t "]), min_size=2, max_size=2),
                    st.lists(st.sampled_from([" ", "\t", "  ", " \t"]), min_size=4, max_size=4),
                ),
                st.tuples(
                    st.just("skip"),
                    st.sampled_from(
                        ["# comment", "#", "   # indented", "\t#tabbed", "#x glued 1 2 3",
                         "", " ", "\t", "  \t  "]
                    ),
                ),
            ),
            max_size=30,
        ),
        endings=st.lists(st.sampled_from(["\n", "\r\n", ""]), min_size=30, max_size=30),
    )
    def test_yields_parse_of_each_event_line(self, items, endings):
        lines, event_lines, expect = [], [], []
        ts = 0
        for item, end in zip(items, endings):
            if item[0] == "skip":
                lines.append(item[1] + end)
                continue
            _, gap, src, dst, delta, explicit, pads, seps = item
            ts += gap
            fields = [str(ts), str(src), str(dst)]
            if explicit or delta < 0:
                fields = ["a" if delta > 0 else "d"] + fields + [str(abs(delta))]
            elif delta != 1:
                fields.append(str(delta))
            line = fields[0] + "".join(s + f for s, f in zip(seps, fields[1:]))
            lines.append(pads[0] + line + pads[1] + end)
            event_lines.append(lines[-1])
            expect.append(TopologyEvent(ts, src, dst, delta))
        events = list(read_event_log(lines))
        assert events == [parse_event_line(line) for line in event_lines]
        assert events == expect

    def test_error_after_skipped_lines_reports_physical_line(self):
        lines = ["# header\n", "\n", "a 1 2 3\r\n", "  \t\r\n", "  #x 5 6 7\n", "a 2 x 3\r\n"]
        with pytest.raises(StreamFormatError) as exc:
            list(read_event_log(lines))
        assert exc.value.line_no == 6
        assert str(exc.value) == "line 6: non-integer field in 'a 2 x 3'"

    @pytest.mark.parametrize("bad", ["a \u0663 1_0 +5", "-0 1 2 0_1", "-0 1 2"])
    def test_non_ascii_digit_line_reports_its_line(self, bad):
        with pytest.raises(StreamFormatError) as exc:
            list(read_event_log(["# header", "a 0 1 2", bad, "a 9 1 2"]))
        assert exc.value.line_no == 3
        assert str(exc.value).startswith("line 3: numeric field ")

    def test_rejects_timestamp_regression(self):
        with pytest.raises(StreamFormatError) as exc:
            list(read_event_log(["a 5 1 2 1", "a 4 1 2 1"]))
        assert exc.value.line_no == 2


class TestSlidingWindow:
    def test_expires_old_adds_before_new_event(self):
        stream = [TopologyEvent(0, 10, 11, 1), TopologyEvent(130, 12, 13, 1)]
        out = list(sliding_window_transform(stream, 120))
        assert out == [
            TopologyEvent(0, 10, 11, 1),
            TopologyEvent(130, 10, 11, -1),
            TopologyEvent(130, 12, 13, 1),
        ]

    def test_window_larger_than_span_is_identity(self):
        stream = [TopologyEvent(i, i, i + 1, 2) for i in range(10)]
        assert list(sliding_window_transform(stream, 10_000)) == stream

    def test_none_window_is_identity(self):
        stream = [TopologyEvent(i, 0, 1, 1) for i in range(5)]
        assert list(sliding_window_transform(stream, None)) == stream

    def test_empty_input(self):
        assert list(sliding_window_transform([], 10)) == []

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            list(sliding_window_transform([TopologyEvent(0, 1, 2, 1)], 0))

    def test_rejects_deletes_in_input(self):
        with pytest.raises(StreamOrderError):
            list(sliding_window_transform([TopologyEvent(0, 1, 2, -1)], 10))

    def test_rejects_unsorted_input(self):
        stream = [TopologyEvent(5, 1, 2, 1), TopologyEvent(4, 1, 2, 1)]
        with pytest.raises(StreamOrderError):
            list(sliding_window_transform(stream, 10))

    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # timestamp gaps
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=9),
            ),
            max_size=60,
        ),
        window=st.integers(min_value=1, max_value=80),
    )
    @settings(max_examples=200)
    def test_output_is_delete_valid_and_windowed(self, data, window):
        ts = 0
        stream = []
        for gap, src, dst, w in data:
            ts += gap
            stream.append(TopologyEvent(ts, src, dst, w))
        out = list(sliding_window_transform(stream, window))
        cumulative = defaultdict(int)
        for ev in out:
            cumulative[(ev.src, ev.dst)] += ev.delta
            assert cumulative[(ev.src, ev.dst)] >= 0
        # the original adds pass through untouched and in order
        assert [e for e in out if e.delta > 0] == stream
        if stream:
            # surviving capacity is exactly the adds within the final window
            horizon = stream[-1].ts - window
            live = defaultdict(int)
            for ev in out:
                live[(ev.src, ev.dst)] += ev.delta
            expect = defaultdict(int)
            for ev in stream:
                if ev.ts >= horizon:
                    expect[(ev.src, ev.dst)] += ev.delta
            assert {k: c for k, c in live.items() if c} == {
                k: c for k, c in expect.items() if c
            }


class TestThrottle:
    def test_no_rate_is_passthrough(self):
        stream = [TopologyEvent(i, 0, 1, 1) for i in range(1000)]
        start = time.monotonic()
        assert list(throttle(stream, None)) == stream
        assert time.monotonic() - start < 0.5

    def test_rate_zero_rejected(self):
        with pytest.raises(ValueError):
            list(throttle([TopologyEvent(0, 0, 1, 1)], 0))

    def test_rate_nan_rejected(self):
        with pytest.raises(ValueError, match="offered rate must be positive"):
            list(throttle([TopologyEvent(0, 0, 1, 1)], float("nan")))

    def test_rate_with_infinite_gap_rejected(self):
        # 1/1e-320 overflows to inf: the second event would be due never.
        with pytest.raises(ValueError, match="finite gap 1/rate between events"):
            list(throttle([TopologyEvent(0, 0, 1, 1)], 1e-320))

    def test_long_gap_sleeps_in_bounded_pieces(self, monkeypatch):
        # A gap of 1e10 s is finite, but one sleep that long overflows.
        slept = []

        class Woken(Exception):
            pass

        def sleep(seconds):
            slept.append(seconds)
            raise Woken

        monkeypatch.setattr(time, "sleep", sleep)
        paced = throttle([TopologyEvent(i, 0, 1, 1) for i in range(2)], 1e-10)
        assert next(paced) == TopologyEvent(0, 0, 1, 1)
        with pytest.raises(Woken):
            next(paced)
        assert slept == [MAX_SLEEP_S]

    def test_long_run_rate_is_bounded(self):
        stream = [TopologyEvent(i, 0, 1, 1) for i in range(2000)]
        start = time.monotonic()
        n = sum(1 for _ in throttle(stream, 1000.0))
        elapsed = time.monotonic() - start
        assert n == 2000
        assert elapsed >= 1.8  # 2000 events at 1000/s, with 10% slack

