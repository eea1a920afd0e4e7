import io
import json
import random

import pytest

from liveflow import cli
from liveflow.cli import (
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_ORACLE,
    RunConfig,
    build_parser,
    config_from_args,
    main,
    run_cli,
)
from liveflow.events import read_event_log, sliding_window_transform
from liveflow.metrics import QuerySchedule
from liveflow.oracle import max_flow_reference
from liveflow.runtime import EngineConfig, GraphStore, create_engine

DIAMOND_LOG = """\
# diamond graph
a 0 0 1 10
a 1 0 2 10
a 2 1 9 10
a 3 2 9 10
a 4 1 2 5
"""


def write_log(tmp_path, text, name="events.log"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def run(tmp_path, text, engine=None, **kw):
    """Run the CLI on ``text``; ``engine`` overrides fields of the default
    seeded EngineConfig(0, 9), the other keywords fields of RunConfig."""
    settings = dict(source=0, sink=9, deterministic_seed=1)
    settings.update(engine or {})
    defaults = dict(
        input_path=write_log(tmp_path, text),
        query_interval=100,
        engine=EngineConfig(**settings),
        output_format="jsonl",
    )
    defaults.update(kw)
    cfg = RunConfig(**defaults)
    out = io.StringIO()
    err = io.StringIO()
    code = run_cli(cfg, out=out, err=err)
    records = [json.loads(line) for line in out.getvalue().splitlines() if line]
    return code, records, err.getvalue()


def queries(records):
    return [r for r in records if r.get("type") == "query"]


def summary(records):
    return next(r for r in records if r.get("type") == "summary")


class TestRunCli:
    def test_empty_input(self, tmp_path):
        code, records, _ = run(tmp_path, "# nothing here\n")
        assert code == EXIT_OK
        s = summary(records)
        assert s["events"] == 0
        assert s["queries"] == 0

    def test_diamond_final_query_with_oracle(self, tmp_path):
        code, records, _ = run(tmp_path, DIAMOND_LOG, oracle_check=True)
        assert code == EXIT_OK
        q = queries(records)
        assert len(q) == 1  # interval reaches past the stream end
        assert q[0]["flow_value"] == 20
        assert q[0]["events_ingested"] == 5

    def test_interval_schedule(self, tmp_path):
        code, records, _ = run(tmp_path, DIAMOND_LOG, query_interval=1)
        assert code == EXIT_OK
        # baseline ts 0; triggers at ts 2, 4; plus the final query
        assert [q["trigger_ts"] for q in queries(records)] == [2, 4, 4]

    def test_corrupted_engine_fails_oracle_check(self, tmp_path):
        class Wrapper:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def query(self, trigger_ts=None):
                res = self._inner.query(trigger_ts)
                res.flow_value += 1  # corrupt the result
                return res

        path = write_log(tmp_path, DIAMOND_LOG)
        cfg = RunConfig(
            input_path=path,
            query_interval=100,
            engine=EngineConfig(source=0, sink=9, deterministic_seed=1),
            oracle_check=True,
            output_format="jsonl",
        )
        err = io.StringIO()
        code = run_cli(
            cfg, out=io.StringIO(), err=err, engine_factory=lambda c: Wrapper(create_engine(c))
        )
        assert code == EXIT_ORACLE
        assert "mismatch" in err.getvalue()

    @pytest.mark.parametrize("static_baseline", [False, True], ids=["engine", "static"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(dict(engine=dict(sink=0)), "source and sink must differ", id="sink"),
            pytest.param(dict(engine=dict(workers=0)), "need at least one worker", id="workers"),
            pytest.param(dict(window=0), "window size must be positive", id="window"),
            pytest.param(dict(offered_rate=0), "offered rate must be positive", id="offered_rate"),
            pytest.param(
                dict(offered_rate=float("nan")), "offered rate must be positive", id="offered_rate_nan"
            ),
            pytest.param(dict(query_interval=0), "query interval must be positive", id="query_interval"),
            pytest.param(dict(output_format="xml"), "unknown output format 'xml'", id="format"),
        ],
    )
    def test_config_error_exit(self, tmp_path, bad, message, static_baseline):
        code, _, err = run(tmp_path, DIAMOND_LOG, static_baseline=static_baseline, **bad)
        assert code == EXIT_CONFIG
        assert f"configuration error: {message}" in err

    def test_engine_creation_error_closes_the_input(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def failing_factory(config):
            raise RuntimeError("no engine")

        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        cfg = RunConfig(
            input_path=write_log(tmp_path, DIAMOND_LOG),
            query_interval=100,
            engine=EngineConfig(source=0, sink=9, deterministic_seed=1),
        )
        with pytest.raises(RuntimeError, match="no engine"):
            run_cli(cfg, out=io.StringIO(), err=io.StringIO(), engine_factory=failing_factory)
        assert len(opened) == 1
        assert opened[0].closed

    def test_missing_input_file(self):
        cfg = RunConfig(
            input_path="/nonexistent/events.log",
            query_interval=10,
            engine=EngineConfig(source=0, sink=9),
        )
        code = run_cli(cfg, out=io.StringIO(), err=io.StringIO())
        assert code == EXIT_ERROR

    def test_malformed_line_exit(self, tmp_path):
        code, _, err = run(tmp_path, "a 0 0 1 10\nbogus nonsense line\n")
        assert code == EXIT_ERROR
        assert "line 2" in err

    @pytest.mark.parametrize(
        "mode",
        [dict(), dict(oracle_check=True), dict(static_baseline=True)],
        ids=["engine", "oracle_check", "static_baseline"],
    )
    def test_delete_invalid_stream_exit(self, tmp_path, mode):
        code, _, err = run(tmp_path, "a 0 1 2 5\nd 1 1 2 9\n", **mode)
        assert code == EXIT_ERROR
        assert "cumulative capacity would become" in err

    def test_offered_rate_paces_the_run(self, tmp_path):
        code, records, _ = run(tmp_path, DIAMOND_LOG, offered_rate=50_000.0)
        assert code == EXIT_OK
        assert queries(records)[-1]["flow_value"] == 20

    def test_window_run_with_oracle(self, tmp_path):
        lines = ["a %d %d %d 2" % (i, i % 7, (i + 1) % 7) for i in range(60)]
        text = "\n".join(lines) + "\n"
        code, records, _ = run(
            tmp_path,
            text,
            engine=dict(sink=5),
            query_interval=15,
            window=20,
            oracle_check=True,
        )
        assert code == EXIT_OK
        assert len(queries(records)) >= 2

    def test_static_baseline_matches_oracle(self, tmp_path):
        code, records, _ = run(
            tmp_path,
            DIAMOND_LOG,
            static_baseline=True,
            oracle_check=True,
            query_interval=2,
        )
        assert code == EXIT_OK
        assert all(q["flow_value"] >= 0 for q in queries(records))

    def test_static_baseline_rebuilds_from_the_ledger(self, tmp_path):
        # a windowed multigraph log: some pairs are added more than once and
        # some fall back to zero capacity once their adds leave the window
        rng = random.Random(3)
        lines = [
            "a %d %d %d %d" % (ts, rng.randrange(8), rng.randrange(8), rng.randint(1, 3))
            for ts in range(120)
        ]
        window, interval = 20, 15
        rebuilds = []

        class Counting:
            def __init__(self, inner):
                self._inner = inner
                self.ingested = []

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def ingest(self, ev):
                self.ingested.append(ev)
                self._inner.ingest(ev)

            def query(self, trigger_ts=None):
                res = self._inner.query(trigger_ts)
                rebuilds.append((trigger_ts, self.ingested, res.flow_value))
                return res

        path = write_log(tmp_path, "\n".join(lines) + "\n")
        cfg = RunConfig(
            input_path=path,
            query_interval=interval,
            engine=EngineConfig(source=0, sink=5, deterministic_seed=1),
            window=window,
            oracle_check=True,
            output_format="jsonl",
            static_baseline=True,
        )
        factory = lambda c: Counting(create_engine(c))  # noqa: E731
        code = run_cli(cfg, out=io.StringIO(), err=io.StringIO(), engine_factory=factory)
        assert code == EXIT_OK

        # the same ledger, kept independently of the CLI: a running sum per
        # pair, zeros included
        store = GraphStore()
        sums = {}
        schedule = QuerySchedule(interval)
        expected = []

        def expect(ts):
            positive = {pair: cap for pair, cap in sums.items() if cap > 0}
            deleted = {pair for pair, cap in sums.items() if cap == 0}
            want, _ = max_flow_reference(store.snapshot(), 0, 5)
            expected.append((ts, positive, want, deleted))
            assert store.caps == positive  # pairs deleted to 0 are forgotten

        for ev in sliding_window_transform(read_event_log(lines), window):
            if schedule.observe(ev.ts):
                expect(ev.ts)
            store.apply_edge(ev)
            store.note_vertices(ev.src, ev.dst)
            key = (ev.src, ev.dst)
            sums[key] = sums.get(key, 0) + ev.delta
        expect(ev.ts)

        assert len(rebuilds) == len(expected) > 2
        for (ts, ingested, flow), (want_ts, positive, want, _) in zip(rebuilds, expected):
            assert ts == want_ts
            assert len(ingested) == len(positive)
            assert {(e.src, e.dst): e.delta for e in ingested} == positive
            assert all(e.ts == ts for e in ingested)
            assert flow == want
        # some pair was deleted to 0 and is absent from the ledger and from
        # the rebuild
        assert any(
            deleted and not deleted & {(e.src, e.dst) for e in ingested}
            for (_, ingested, _), (*_, deleted) in zip(rebuilds, expected)
        )
        assert any(want for _, _, want, _ in expected)  # and some flow was positive

    def test_tsv_output_shape(self, tmp_path):
        path = write_log(tmp_path, DIAMOND_LOG)
        cfg = RunConfig(
            input_path=path,
            query_interval=100,
            engine=EngineConfig(source=0, sink=9, deterministic_seed=1),
            output_format="tsv",
        )
        out = io.StringIO()
        assert run_cli(cfg, out=out, err=io.StringIO()) == EXIT_OK
        lines = out.getvalue().splitlines()
        assert lines[0].startswith("trigger_ts\t")
        assert lines[-1].startswith("# summary ")
        assert len(lines) == 3  # header, one query, summary

    def test_deterministic_runs_are_identical(self, tmp_path):
        def one_run():
            _, records, _ = run(
                tmp_path,
                DIAMOND_LOG,
                engine=dict(workers=2, deterministic_seed=42),
                query_interval=1,
            )
            for r in records:
                r.pop("latency_ms", None)
                r.pop("events_per_sec", None)
                r.pop("mean_latency_ms", None)
                r.pop("median_events_per_sec", None)
                r.pop("min_events_per_sec", None)
                r.pop("max_events_per_sec", None)
            return records

        assert one_run() == one_run()


class TestArgs:
    def test_parser_round_trip(self):
        args = build_parser().parse_args(
            [
                "--input", "x.log",
                "--source", "3",
                "--sink", "4",
                "--query-interval", "7",
                "--workers", "2",
                "--window", "100",
                "--rate", "500",
                "--oracle-check",
                "--deterministic", "9",
                "--format", "jsonl",
                "--static-baseline",
            ]
        )
        cfg = config_from_args(args)
        assert cfg.engine.source == 3 and cfg.engine.sink == 4
        assert cfg.engine.workers == 2
        assert cfg.window == 100 and cfg.offered_rate == 500.0
        assert cfg.engine.deterministic_seed == 9
        assert cfg.static_baseline is True

    @pytest.mark.parametrize(
        "flag", ["--alpha", "--gr-lift-threshold", "--gr-time-factor", "--gr-min-interval"]
    )
    def test_removed_tuning_flag_is_rejected(self, flag):
        required = ["--input", "x.log", "--source", "3", "--sink", "4", "--query-interval", "7"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(required + [flag, "2"])
        assert exc.value.code == 2

    def test_parser_defaults_are_the_engine_defaults(self):
        args = build_parser().parse_args(
            ["--input", "x.log", "--source", "3", "--sink", "4", "--query-interval", "7"]
        )
        cfg = config_from_args(args)
        assert cfg.engine == EngineConfig(3, 4)
        assert cfg == RunConfig(input_path="x.log", query_interval=7, engine=EngineConfig(3, 4))

    def test_main_returns_code_with_explicit_argv(self, tmp_path):
        path = write_log(tmp_path, DIAMOND_LOG)
        code = main(
            [
                "--input", path,
                "--source", "0",
                "--sink", "9",
                "--query-interval", "100",
                "--deterministic", "1",
            ]
        )
        assert code == EXIT_OK
