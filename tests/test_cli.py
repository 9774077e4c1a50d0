"""Tests for the command-line interface and the ASCII chart renderer."""

import json

import pytest

from repro import __version__
from repro.analysis.textplot import line_chart
from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.harness.registry import PROTOCOLS


class TestTextPlot:
    def test_renders_series_and_legend(self):
        chart = line_chart({"fast": [1.0, 2.0, 3.0], "slow": [3.0, 2.5, 4.0]}, [10, 20, 30])
        assert "* fast" in chart and "o slow" in chart
        assert "10" in chart and "30" in chart

    def test_y_scale_labels_extremes(self):
        chart = line_chart({"s": [1.5, 9.5]}, ["a", "b"], height=5)
        assert "9.50" in chart and "1.50" in chart

    def test_flat_series_does_not_divide_by_zero(self):
        chart = line_chart({"s": [2.0, 2.0]}, [1, 2])
        assert "*" in chart

    def test_title(self):
        chart = line_chart({"s": [1, 2]}, [1, 2], title="latency")
        assert chart.splitlines()[0] == "latency"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_chart({}, [])
        with pytest.raises(ConfigurationError):
            line_chart({"s": [1.0]}, [1, 2])
        with pytest.raises(ConfigurationError):
            line_chart({"s": [1.0]}, [1], height=1)


class TestCli:
    def test_consensus_command(self, capsys):
        assert main(["consensus", "--protocol", "p-consensus", "--proposals", "v,v,v,v"]) == 0
        out = capsys.readouterr().out
        assert "decided 'v' after 1 step(s)" in out

    def test_consensus_with_crash(self, capsys):
        code = main(
            [
                "consensus",
                "--protocol",
                "l-consensus",
                "--proposals",
                "a,b,c,d",
                "--crash",
                "0:0.0001",
                "--detection-delay",
                "0.002",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crashed  : [0]" in out

    def test_abcast_command(self, capsys):
        assert main(
            ["abcast", "--protocol", "cabcast-p", "--rate", "50", "--duration", "0.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "total order verified" in out

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--protocols",
                "cabcast-p",
                "--rates",
                "20,50",
                "--duration",
                "0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "msg/s" in out
        assert "* cabcast-p" in out  # chart legend

    def test_sweep_rejects_unknown_protocol(self, capsys):
        assert main(["sweep", "--protocols", "nope", "--rates", "20"]) == 2

    def test_sweep_json_export(self, tmp_path, capsys):
        import json

        out = tmp_path / "out.json"
        code = main(
            [
                "sweep",
                "--protocols",
                "cabcast-p",
                "--rates",
                "20,50",
                "--duration",
                "0.3",
                "--no-chart",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro.sweep.v1"
        assert document["grid"]["protocols"] == ["cabcast-p"]
        assert len(document["runs"]) == 2
        for run in document["runs"]:
            assert run["schema"] == "repro.run-report.v1"
            assert run["spec"]["protocol"] == "cabcast-p"
            assert run["delivered"] > 0
            assert run["network"]["bytes_sent"] > 0

    def test_sweep_cache_repeat_is_all_hits_and_identical(self, tmp_path, capsys):
        args = [
            "sweep",
            "--protocols",
            "cabcast-p",
            "--rates",
            "20,50",
            "--duration",
            "0.3",
            "--no-chart",
            "--cache",
            str(tmp_path / "cache"),
            "--json",
            str(tmp_path / "out.json"),
        ]
        assert main(args) == 0
        first_json = (tmp_path / "out.json").read_bytes()
        first_err = capsys.readouterr().err
        assert "2 misses" in first_err
        assert main(args) == 0
        second_err = capsys.readouterr().err
        assert "2 hits, 0 misses (100% hit rate)" in second_err
        assert (tmp_path / "out.json").read_bytes() == first_json

    def test_shard_axis_sweep_cache_repeat_is_all_hits_and_identical(
        self, tmp_path, capsys
    ):
        args = [
            "sweep",
            "--shards",
            "1,2",
            "--rates",
            "100",
            "--duration",
            "0.3",
            "--cache",
            str(tmp_path / "cache"),
            "--json",
            str(tmp_path / "out.json"),
            "--progress",
        ]
        assert main(args) == 0
        first_json = (tmp_path / "out.json").read_bytes()
        first = capsys.readouterr()
        assert "6 misses" in first.err and "[6/6]" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert "6 hits, 0 misses (100% hit rate)" in second.err
        assert second.out == first.out
        assert (tmp_path / "out.json").read_bytes() == first_json
        document = json.loads(first_json)
        assert document["grid"]["shards"] == [1, 2]
        assert len(document["runs"]) == 6

    def test_sweep_parallel_jobs(self, capsys):
        code = main(
            [
                "sweep",
                "--protocols",
                "cabcast-p",
                "--rates",
                "20,50",
                "--duration",
                "0.3",
                "--jobs",
                "2",
                "--no-chart",
            ]
        )
        assert code == 0
        assert "msg/s" in capsys.readouterr().out

    def test_sweep_progress_streams_to_stderr(self, capsys):
        code = main(
            [
                "sweep",
                "--protocols",
                "cabcast-p",
                "--rates",
                "20,50",
                "--duration",
                "0.3",
                "--progress",
                "--no-chart",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "msg/s" in captured.out
        # The progress line streams cell completions to stderr, ending at
        # the full grid; the report table on stdout stays clean.
        assert "[2/2]" in captured.err
        assert "[2/2]" not in captured.out

    def test_sweep_multipaxos_uses_paper_group_size(self, capsys):
        code = main(
            [
                "sweep",
                "--protocols",
                "multipaxos",
                "--rates",
                "20",
                "--duration",
                "0.3",
                "--no-chart",
            ]
        )
        assert code == 0
        assert "(n=3)" in capsys.readouterr().err

    def test_table1_command(self, capsys):
        assert main(["table1", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "L-/P-Consensus" in out and "2d ; 3d" in out

    def test_theorem1_command(self, capsys):
        assert main(["theorem1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out and "val=1" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_protocols_command_lists_registry(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name, info in PROTOCOLS.items():
            assert name in out and info.kind in out

    def test_rsm_command(self, capsys):
        code = main(
            [
                "rsm",
                "--protocol",
                "cabcast-l",
                "--n",
                "4",
                "--clients",
                "4",
                "--rate",
                "150",
                "--duration",
                "0.6",
                "--crash",
                "2@0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "protocol : cabcast-l (n=4, 4 sessions" in out
        assert "committed:" in out and "batching :" in out
        assert "crashed  : [2]" in out
        assert "p2 rejoined from snapshot index" in out
        assert "state matches" in out
        assert "linearizable=true" in out

    def test_rsm_json_is_deterministic(self, capsys):
        argv = [
            "rsm",
            "--protocol",
            "cabcast-l",
            "--clients",
            "4",
            "--rate",
            "150",
            "--duration",
            "0.5",
            "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["spec"]["kind"] == "rsm"
        assert doc["rsm"]["linearizable"] is True

    def test_rsm_recovery_can_be_disabled(self, capsys):
        code = main(
            [
                "rsm",
                "--clients",
                "4",
                "--rate",
                "150",
                "--duration",
                "0.5",
                "--crash",
                "1@0.25",
                "--recover-after",
                "-1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "crashed  : [1]" in out
        assert "rejoined" not in out


class TestCliBadInput:
    """Malformed flags end in a one-line usage error (exit 2), never a
    traceback."""

    def test_consensus_takes_the_pid_at_time_spelling(self, capsys):
        code = main(
            [
                "consensus",
                "--protocol",
                "l-consensus",
                "--crash",
                "0@0.0001",
                "--detection-delay",
                "0.002",
            ]
        )
        assert code == 0
        assert "crashed  : [0]" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["2", "x@0.1", "1@soon"])
    def test_malformed_crash_is_a_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["rsm", "--crash", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --crash: expected PID@TIME (e.g. 2@0.5), got {value!r}" in err

    @pytest.mark.parametrize(
        "flag, value, spelling",
        [
            ("--partition", "0.05", "AT:DUR:GROUPS (e.g. 0.05:0.1:0/1,2,3)"),
            ("--partition", "0.05:0.1:0/x", "AT:DUR:GROUPS (e.g. 0.05:0.1:0/1,2,3)"),
            ("--partition", "soon:0.1:0/1", "AT:DUR:GROUPS (e.g. 0.05:0.1:0/1,2,3)"),
            ("--fd-flap", "0.05:0.1:x", "AT:DUR:PID (e.g. 0.2:0.05:2)"),
            ("--fd-flap", "0.05:0.1", "AT:DUR:PID (e.g. 0.2:0.05:2)"),
        ],
    )
    def test_malformed_nemesis_flag_is_a_usage_error(self, capsys, flag, value, spelling):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "export", "--out", "unused.jsonl", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected {spelling}, got {value!r}" in err

    def test_rejected_spec_is_a_one_line_error(self, capsys):
        assert main(["rsm", "--crash", "9@0.1", "--duration", "0.3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro: error: crash_at names unknown replica 9\n"
        assert captured.out == ""

    def test_consensus_crash_of_unknown_pid_is_a_one_line_error(self, capsys):
        assert main(["consensus", "--crash", "9@0.01"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro: error: crash_at names unknown replica 9\n"
        assert captured.out == ""


class TestTraceCli:
    EXPORT = [
        "trace",
        "export",
        "--protocol",
        "cabcast-l",
        "--rate",
        "100",
        "--duration",
        "0.3",
        "--seed",
        "3",
    ]

    def test_export_summary_and_self_diff(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main([*self.EXPORT, "--out", str(path)]) == 0
        assert "wrote    :" in capsys.readouterr().out

        assert main(["trace", "summary", str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "records  :" in out
        assert "propose" in out and "round-start" in out
        assert "fast-path" in out

        assert main(["trace", "diff", str(path), str(path)]) == 0
        assert "identical:" in capsys.readouterr().out

    def test_export_is_byte_identical_per_seed(self, tmp_path, capsys):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main([*self.EXPORT, "--out", str(first)]) == 0
        assert main([*self.EXPORT, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_diff_pinpoints_divergence(self, tmp_path, capsys):
        left, right = tmp_path / "l.jsonl", tmp_path / "r.jsonl"
        assert main([*self.EXPORT, "--out", str(left)]) == 0
        assert main(["trace", "export", "--protocol", "cabcast-l", "--rate",
                     "100", "--duration", "0.3", "--seed", "4",
                     "--out", str(right)]) == 0
        capsys.readouterr()
        assert main(["trace", "diff", str(left), str(right)]) == 1
        out = capsys.readouterr().out
        assert "diverged at record" in out
        assert "t=" in out and "pid=" in out and "kind=" in out

    def test_spans_lists_consensus_and_broadcast_spans(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main([*self.EXPORT, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "spans", str(path)]) == 0
        out = capsys.readouterr().out
        assert "consensus[" in out and "decided" in out
        assert "msg (" in out and "deliveries" in out

    def test_chrome_export_loads_as_trace_event_json(self, tmp_path, capsys):
        path = tmp_path / "run.chrome.json"
        assert main([*self.EXPORT, "--format", "chrome", "--out", str(path)]) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        names = {event["name"] for event in document["traceEvents"]}
        assert "a-broadcast" in names

    def test_summary_strict_rejects_unknown_kinds(self, tmp_path, capsys):
        path = tmp_path / "bogus.jsonl"
        header = {"records": 1, "schema": "repro.trace.v1"}
        rows = [[0.1, 0, "made-up-kind", None]]
        path.write_text(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
            + "\n"
            + "\n".join(
                json.dumps(row, sort_keys=True, separators=(",", ":"))
                for row in rows
            )
            + "\n"
        )
        assert main(["trace", "summary", str(path)]) == 0
        assert "unknown kinds" in capsys.readouterr().err
        assert main(["trace", "summary", str(path), "--strict"]) == 1


class TestCausalAndWarehouseCli:
    """``trace critical-path``, prefix-aware ``diff`` and the ``obs`` group."""

    NEMESIS_EXPORT = [
        "trace", "export", "--protocol", "cabcast-l", "--rate", "100",
        "--duration", "0.3", "--seed", "1",
        "--partition", "0.05:0.1:0/1,2,3",
    ]

    def test_critical_path_strict_on_nemesis_export(self, tmp_path, capsys):
        # The CI obs-causal smoke contract: a partition run exports flow
        # events and every decided instance resolves a critical path.
        path = tmp_path / "nem.jsonl"
        assert main([*self.NEMESIS_EXPORT, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "critical-path", str(path), "--strict"]) == 0
        out = capsys.readouterr().out
        assert "hop(s)" in out and "on the wire" in out

    def test_critical_path_json_output(self, tmp_path, capsys):
        path = tmp_path / "nem.jsonl"
        assert main([*self.NEMESIS_EXPORT, "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "critical-path", str(path), "--json"]) == 0
        paths = json.loads(capsys.readouterr().out)
        assert paths and all(p["hops"] for p in paths)

    def test_nemesis_chrome_export_has_flow_events(self, tmp_path, capsys):
        path = tmp_path / "nem.chrome.json"
        assert main(
            [*self.NEMESIS_EXPORT, "--format", "chrome", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        events = json.loads(path.read_text())["traceEvents"]
        assert [e for e in events if e.get("ph") == "s" and e.get("cat") == "msg"]
        assert [e for e in events if e.get("ph") == "f" and e.get("bp") == "e"]

    def test_diff_reports_strict_prefix_with_trailing_count(self, tmp_path, capsys):
        full, prefix = tmp_path / "full.jsonl", tmp_path / "prefix.jsonl"
        assert main([*self.NEMESIS_EXPORT, "--out", str(full)]) == 0
        lines = full.read_text().splitlines()
        prefix.write_text("\n".join(lines[:-5]) + "\n")
        capsys.readouterr()
        assert main(["trace", "diff", str(prefix), str(full)]) == 1
        out = capsys.readouterr().out
        assert f"traces agree on the first {len(lines) - 6} records" in out
        assert "right has 5 extra trailing record(s)" in out
        assert "first extra (right)" in out

    def test_obs_record_report_compare_round_trip(self, tmp_path, capsys):
        # The CI warehouse contract: two same-seed recordings are
        # byte-identical and compare clean.
        store = str(tmp_path / "wh.jsonl")
        record = ["obs", "record", "--warehouse", store, "--protocol",
                  "cabcast-l", "--rate", "100", "--duration", "0.3",
                  "--seed", "2"]
        assert main(record) == 0
        assert main(record) == 0
        lines = (tmp_path / "wh.jsonl").read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        capsys.readouterr()
        assert main(["obs", "report", store]) == 0
        assert "cabcast-l" in capsys.readouterr().out
        assert main(["obs", "compare", store]) == 0
        assert "no latency regression" in capsys.readouterr().out

    def test_obs_compare_flags_regression(self, tmp_path, capsys):
        store = str(tmp_path / "wh.jsonl")
        base = ["obs", "record", "--warehouse", store, "--protocol",
                "cabcast-l", "--duration", "0.3", "--seed", "2"]
        assert main([*base, "--rate", "100"]) == 0
        assert main([*base, "--rate", "900"]) == 0
        capsys.readouterr()
        assert main(["obs", "compare", store]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        # A widened tolerance lets the same pair through.
        assert main(["obs", "compare", store, "--tolerance", "9"]) == 0


class TestFuzzCli:
    """``repro fuzz``: bounded smoke campaign and repro replay."""

    def test_stock_protocol_smoke_is_clean(self, capsys):
        # The CI fuzz-smoke contract: a fixed-seed bounded campaign against
        # a stock protocol finds zero safety violations and exits 0.
        code = main(
            ["fuzz", "--kind", "consensus", "--protocol", "p-consensus",
             "--budget", "6", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_replay_of_saved_repro(self, tmp_path, monkeypatch, capsys):
        from repro.engine import ClusterSpec, ConsensusRunSpec
        from repro.harness.registry import CONSENSUS, ProtocolInfo
        from repro.nemesis.fuzz import fuzz_schedules, save_repro
        from repro.sim.network import UniformDelay
        from tests.test_fault_injection import GreedyLConsensus

        def make(pid, env, oracle, host):
            return GreedyLConsensus(env, oracle.omega(pid))

        registry = dict(PROTOCOLS)
        registry["greedy-l"] = ProtocolInfo("greedy-l", CONSENSUS, make)
        monkeypatch.setattr("repro.harness.registry.PROTOCOLS", registry)
        spec = ConsensusRunSpec(
            protocol="greedy-l",
            proposals=("b", "a", "a", "a"),
            seed=30,
            cluster=ClusterSpec(
                delay=UniformDelay(1e-4, 3e-3), detection_delay=1e-3
            ),
            horizon=5.0,
        )
        result = fuzz_schedules(
            spec, budget=40, seed=0, window=0.01, vary_seed=False
        )
        path = tmp_path / "repro.json"
        save_repro(result.findings[0], path)

        assert main(["fuzz", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reproduced AgreementViolation" in out
