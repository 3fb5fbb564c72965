"""Tests for ``repro.campaign``: spec expansion, resumable runs, the
regression gate, the results exporter, and the ``plssvm-bench`` CLI.

The load-bearing acceptance checks live here:

* a campaign killed mid-run re-executes *only* the missing cells on the
  next run (proven by counting actual scenario executions);
* ``plssvm-bench check`` exits non-zero against a doctored baseline and
  zero against the report's own numbers;
* the JSONL store tolerates a truncated final line (the kill can land
  mid-append) but refuses silently dropping interior corruption.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    GateRule,
    ResultsStore,
    available_scenarios,
    check_report,
    flatten_metrics,
    lookup_metric,
    register_scenario,
    rules_for_cell,
    serve_campaign,
    solver_campaign,
    unregister_scenario,
)
from repro.campaign.exporter import CampaignExporter, ExporterServer
from repro.cli.bench import main as bench_main
from repro.exceptions import CampaignError, RegressionGateError


@pytest.fixture
def probe_scenario():
    """A registered scenario that records every execution."""
    calls = []

    def probe(x: int, boom: bool = False) -> dict:
        calls.append(x)
        if boom:
            raise RuntimeError("scenario exploded")
        return {"x": x, "squared": x * x, "nested": {"ratio": x / 10.0}}

    register_scenario(
        "probe",
        probe,
        defaults={"x": 1, "boom": False},
        gate=(GateRule("squared", "squared", "higher", max_regression=0.5),),
        replace=True,
    )
    yield calls
    unregister_scenario("probe")


def _spec(entries, name="t", config=None):
    return CampaignSpec.from_dict(
        {"name": name, "cells": entries, "config": config or {}}
    )


class TestSpecExpansion:
    def test_grid_expands_cartesian_sorted(self, probe_scenario):
        spec = _spec(
            [{"scenario": "probe",
              "grid": {"x": [1, 2], "boom": [False]}}]
        )
        assert [c.key for c in spec.cells] == [
            "probe[boom=False,x=1]",
            "probe[boom=False,x=2]",
        ]
        assert spec.cells[1].params == {"x": 2, "boom": False}

    def test_no_grid_is_single_flat_cell(self, probe_scenario):
        spec = _spec([{"scenario": "probe", "params": {"x": 3}}])
        assert [c.key for c in spec.cells] == ["probe"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(CampaignError, match="unknown scenario"):
            _spec([{"scenario": "no-such-scenario"}])

    def test_unknown_param_rejected(self, probe_scenario):
        with pytest.raises(CampaignError, match="does not accept"):
            _spec([{"scenario": "probe", "params": {"typo": 1}}])

    def test_colliding_keys_rejected(self, probe_scenario):
        with pytest.raises(CampaignError, match="two entries"):
            _spec([{"scenario": "probe"}, {"scenario": "probe"}])

    def test_param_grid_overlap_rejected(self, probe_scenario):
        with pytest.raises(CampaignError, match="both params and grid"):
            _spec([{"scenario": "probe", "params": {"x": 1},
                    "grid": {"x": [1, 2]}}])

    def test_unknown_entry_field_rejected(self, probe_scenario):
        with pytest.raises(CampaignError, match="unknown field"):
            _spec([{"scenario": "probe", "matrix": {}}])

    def test_from_file_roundtrip(self, probe_scenario, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"name": "file", "cells": [{"scenario": "probe",
                                        "grid": {"x": [1, 2, 3]}}]}
        ))
        spec = CampaignSpec.from_file(path)
        assert len(spec) == 3
        assert spec.as_dict()["name"] == "file"
        (tmp_path / "bad.json").write_text("{nope")
        with pytest.raises(CampaignError, match="not valid JSON"):
            CampaignSpec.from_file(tmp_path / "bad.json")

    def test_presets_expand(self):
        solver = solver_campaign(quick=True)
        assert [c.key for c in solver.cells] == [
            "single_vs_block", "tile_cache", "multiclass", "preconditioning",
            "mixed_precision", "randomized_solvers", "incremental_refit",
            "out_of_core", "operator_selection",
        ]
        assert solver.config["quick"] is True
        serve = serve_campaign(quick=True)
        assert [c.key for c in serve.cells] == [
            "warm_engine", "batching", "compact_serving",
        ]
        # Every preset cell's scenario is registered with gate rules.
        for cell in list(solver.cells) + list(serve.cells):
            assert cell.scenario in available_scenarios()
            assert rules_for_cell(cell.key)


class TestOperatorSelectionScenario:
    def test_default_is_matrix_free_and_loses_no_accuracy(self):
        from repro.campaign.scenarios import get_scenario

        scenario = get_scenario("operator_selection")
        result = scenario.run(
            {"kernels": ["linear", "rbf"], "m_values": [120],
             "features_values": [3], "reps": 1, "seed": 1}
        )
        assert [p["kernel"] for p in result["points"]] == ["linear", "rbf"]
        for point in result["points"]:
            assert point["default_operator"] == "implicit"
            assert point["default_accuracy"] == point["explicit_accuracy"]
        assert result["worst_accuracy_gap"] == 0.0
        # Only the timing gate depends on the host; the accuracy gate holds.
        rules = {rule.metric: rule for rule in scenario.gate}
        assert lookup_metric(result, rules["worst_accuracy_gap"].path) == 0.0
        assert rules["worst_time_ratio"].ceiling == 1.2


class TestRunnerResume:
    def test_resume_executes_only_missing_cells(
        self, probe_scenario, tmp_path
    ):
        """The acceptance test: kill mid-campaign, re-run, and count
        which cells actually execute the second time."""
        spec = _spec([{"scenario": "probe", "grid": {"x": [1, 2, 3]}}])
        store = ResultsStore(tmp_path / "t.jsonl")

        # First run dies on the second cell — a stand-in for SIGINT.
        def die_on_2(cell_key, done, total, status):
            if status == "start" and "x=2" in cell_key:
                raise KeyboardInterrupt

        runner = CampaignRunner(spec, store, progress=die_on_2)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        assert probe_scenario == [1]
        assert list(store.completed()) == ["probe[x=1]"]

        # The re-run reuses cell 1 and executes exactly cells 2 and 3.
        run = CampaignRunner(spec, store).run()
        assert probe_scenario == [1, 2, 3]  # x=1 never re-ran
        assert run.reused == ["probe[x=1]"]
        assert sorted(run.executed) == ["probe[x=2]", "probe[x=3]"]
        assert run.ok
        assert set(run.scenarios) == {"probe[x=1]", "probe[x=2]", "probe[x=3]"}

    def test_changed_params_invalidate_resume(self, probe_scenario, tmp_path):
        store = ResultsStore(tmp_path / "t.jsonl")
        CampaignRunner(
            _spec([{"scenario": "probe", "params": {"x": 5}}]), store
        ).run()
        assert probe_scenario == [5]
        # Same cell key, different params: the record must not be reused.
        run = CampaignRunner(
            _spec([{"scenario": "probe", "params": {"x": 6}}]), store
        ).run()
        assert probe_scenario == [5, 6]
        assert run.executed == ["probe"]

    def test_no_resume_reexecutes_everything(self, probe_scenario, tmp_path):
        spec = _spec([{"scenario": "probe", "grid": {"x": [1, 2]}}])
        store = ResultsStore(tmp_path / "t.jsonl")
        CampaignRunner(spec, store).run()
        run = CampaignRunner(spec, store).run(resume=False)
        assert probe_scenario == [1, 2, 1, 2]
        assert run.reused == []

    def test_scenario_error_recorded_not_fatal(self, probe_scenario, tmp_path):
        # Distinct keys: the boom cell needs a grid axis to disambiguate.
        spec = _spec([
            {"scenario": "probe", "grid": {"boom": [True]}},
            {"scenario": "probe", "params": {"x": 2}},
        ])
        store = ResultsStore(tmp_path / "t.jsonl")
        run = CampaignRunner(spec, store).run()
        assert not run.ok
        assert "scenario exploded" in run.failed["probe[boom=True]"]
        assert run.executed == ["probe"]  # the healthy cell still ran
        record = store.latest()["probe[boom=True]"]
        assert record["status"] == "error"
        # An errored cell is not "completed": the next run retries it.
        run2 = CampaignRunner(spec, store).run()
        assert "probe[boom=True]" in run2.failed

    def test_parallel_workers_complete_all_cells(self, probe_scenario, tmp_path):
        spec = _spec([{"scenario": "probe", "grid": {"x": [1, 2, 3, 4]}}])
        store = ResultsStore(tmp_path / "t.jsonl")
        run = CampaignRunner(spec, store, workers=3).run()
        assert sorted(probe_scenario) == [1, 2, 3, 4]
        assert run.ok and len(run.executed) == 4

    def test_report_shape_matches_bench_artifacts(self, probe_scenario, tmp_path):
        spec = _spec([{"scenario": "probe"}], config={"points": 9})
        run = CampaignRunner(spec, ResultsStore(tmp_path / "t.jsonl")).run()
        report = run.report(harness="x")
        assert set(report) == {
            "harness", "campaign", "python", "machine", "config", "scenarios",
        }
        assert report["config"] == {"points": 9}
        assert report["scenarios"]["probe"]["squared"] == 1


class TestResultsStore:
    def test_truncated_final_line_tolerated(self, probe_scenario, tmp_path):
        store = ResultsStore(tmp_path / "t.jsonl")
        store.append(cell="a", scenario="probe", params={}, status="ok",
                     metrics={"m": 1})
        with open(store.path, "a") as fh:
            fh.write('{"cell": "b", "status": "ok"')  # killed mid-append
        assert [r["cell"] for r in store.records()] == ["a"]

    def test_interior_corruption_raises(self, tmp_path):
        store = ResultsStore(tmp_path / "t.jsonl")
        store.append(cell="a", scenario="s", params={}, status="ok")
        path = store.path
        path.write_text("garbage\n" + path.read_text())
        with pytest.raises(CampaignError, match="corrupt results record"):
            store.records()

    def test_latest_wins_per_cell(self, tmp_path):
        store = ResultsStore(tmp_path / "t.jsonl")
        store.append(cell="a", scenario="s", params={}, status="error",
                     error="x")
        store.append(cell="a", scenario="s", params={}, status="ok",
                     metrics={"m": 2})
        assert store.latest()["a"]["metrics"] == {"m": 2}
        assert list(store.completed()) == ["a"]
        stats = store.stats()
        assert stats["cells"] == 1 and stats["ok"] == 1

    def test_bad_status_rejected(self, tmp_path):
        store = ResultsStore(tmp_path / "t.jsonl")
        with pytest.raises(CampaignError, match="status"):
            store.append(cell="a", scenario="s", params={}, status="meh")


class TestGate:
    RULES = {
        "cell": (
            GateRule("speed", "speedup", "higher", max_regression=0.2),
            GateRule("diff", "points[-1].diff", "lower", ceiling=1e-6),
            GateRule("exact", "bit_identical", "equal", expect=True),
        ),
    }

    def _check(self, fresh, baseline):
        return check_report(
            fresh, baseline, rules_for=lambda cell: self.RULES.get(cell, ())
        )

    def _metrics(self, speedup=2.0, diff=1e-9, identical=True):
        return {
            "speedup": speedup,
            "points": [{"diff": 0.5}, {"diff": diff}],
            "bit_identical": identical,
        }

    def test_gate_passes_against_itself(self):
        fresh = {"cell": self._metrics()}
        result = self._check(fresh, fresh)
        assert result.ok
        assert result.checked == 3

    def test_relative_regression_fails(self):
        result = self._check(
            {"cell": self._metrics(speedup=1.0)},
            {"cell": self._metrics(speedup=2.0)},
        )
        assert not result.ok
        assert result.violations[0].kind == "regression"
        assert "tolerance" in result.violations[0].message

    def test_within_tolerance_passes(self):
        result = self._check(
            {"cell": self._metrics(speedup=1.7)},
            {"cell": self._metrics(speedup=2.0)},
        )
        assert result.ok

    def test_absolute_ceiling_fails_without_baseline_help(self):
        # Even a "better than baseline" diff fails the absolute ceiling.
        result = self._check(
            {"cell": self._metrics(diff=1e-3)},
            {"cell": self._metrics(diff=1e-2)},
        )
        assert [v.kind for v in result.violations] == ["ceiling"]

    def test_expect_mismatch_fails(self):
        result = self._check(
            {"cell": self._metrics(identical=False)},
            {"cell": self._metrics()},
        )
        assert [v.kind for v in result.violations] == ["mismatch"]

    def test_metric_missing_from_fresh_fails(self):
        fresh = {"cell": {"points": [{"diff": 0.0}], "bit_identical": True}}
        result = self._check(fresh, {"cell": self._metrics()})
        assert any(
            v.kind == "missing" and v.metric == "speed"
            for v in result.violations
        )

    def test_metric_missing_from_baseline_skips_relative(self):
        baseline = {"cell": {"points": [{"diff": 0.0}], "bit_identical": True}}
        result = self._check({"cell": self._metrics()}, baseline)
        assert result.ok
        assert result.skipped_relative == 1

    def test_cell_missing_from_fresh_fails(self):
        result = self._check({}, {"cell": self._metrics()})
        assert not result.ok
        assert result.violations[0].kind == "missing"

    def test_new_fresh_cell_without_rules_ignored(self):
        result = self._check(
            {"cell": self._metrics(), "extra": {"anything": 1}},
            {"cell": self._metrics()},
        )
        assert result.ok

    def test_lookup_metric_paths(self):
        data = {"a": {"b": [{"c": 7}, {"c": 8}]}}
        assert lookup_metric(data, "a.b[-1].c") == 8
        assert lookup_metric(data, "a.b[0].c") == 7
        with pytest.raises(KeyError):
            lookup_metric(data, "a.nope")
        with pytest.raises(KeyError):
            lookup_metric(data, "a.b[5].c")

    def test_gate_error_carries_violations(self):
        err = RegressionGateError("gate failed", violations=[1, 2])
        assert err.violations == [1, 2]
        assert isinstance(err, CampaignError)


class TestFlattenMetrics:
    def test_flattens_numeric_leaves_only(self):
        flat = flatten_metrics({
            "a": 1, "b": {"c": 2.5, "d": "text"}, "e": [3, {"f": True}],
            "g": None,
        })
        assert flat == {"a": 1.0, "b.c": 2.5, "e.0": 3.0, "e.1.f": 1.0}


class TestExporter:
    @pytest.fixture
    def results_dir(self, probe_scenario, tmp_path):
        spec = _spec([{"scenario": "probe", "grid": {"x": [2, 4]}}])
        CampaignRunner(spec, ResultsStore(tmp_path / "t.jsonl")).run()
        return tmp_path

    def test_exporter_views(self, results_dir):
        exporter = CampaignExporter(results_dir)
        listing = exporter.campaigns()
        assert listing["campaigns"][0]["campaign"] == "t"
        assert listing["campaigns"][0]["ok"] == 2
        detail = exporter.campaign("t")
        assert set(detail["cells"]) == {"probe[x=2]", "probe[x=4]"}
        metrics = exporter.metrics()
        assert metrics["metrics"]["t/probe[x=2]/squared"] == 4.0
        assert metrics["metrics"]["t/probe[x=4]/nested.ratio"] == 0.4
        with pytest.raises(CampaignError, match="no results"):
            exporter.campaign("nope")

    def test_http_endpoints(self, results_dir):
        server = ExporterServer(
            ("127.0.0.1", 0), CampaignExporter(results_dir)
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"

        def get(path):
            with urllib.request.urlopen(f"{base}{path}", timeout=10) as resp:
                return resp.status, json.loads(resp.read())

        try:
            status, body = get("/campaigns")
            assert status == 200
            assert body["campaigns"][0]["cells"] == 2
            status, body = get("/campaigns/t")
            assert status == 200
            assert body["cells"]["probe[x=2]"]["status"] == "ok"
            status, body = get("/metrics")
            assert status == 200
            assert body["metrics"]["t/probe[x=4]/squared"] == 16.0
            status, body = get("/healthz")
            assert status == 200 and body["campaigns"] == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get("/campaigns/ghost")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)


class TestBenchCLI:
    @pytest.fixture
    def spec_file(self, probe_scenario, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({
            "name": "clitest",
            "cells": [{"scenario": "probe", "grid": {"x": [3, 5]}}],
        }))
        return path

    def _run(self, args, cwd, monkeypatch):
        monkeypatch.chdir(cwd)
        return bench_main(args)

    def test_run_then_check_roundtrip(self, spec_file, probe_scenario,
                                      tmp_path, monkeypatch):
        code = self._run(["run", str(spec_file)], tmp_path, monkeypatch)
        assert code == 0
        report_path = tmp_path / "BENCH_clitest.json"
        assert report_path.exists()
        assert (tmp_path / "benchmarks" / "results" / "clitest.jsonl").exists()
        report = json.loads(report_path.read_text())
        assert report["scenarios"]["probe[x=3]"]["squared"] == 9
        # check against the just-written baseline: resume reuses cells,
        # every gated metric matches itself.
        executions = len(probe_scenario)
        code = self._run(
            ["check", str(spec_file), "--resume",
             "--baseline", str(report_path), "--output",
             str(tmp_path / "fresh.json")],
            tmp_path, monkeypatch,
        )
        assert code == 0
        assert len(probe_scenario) == executions  # resume: nothing re-ran

    def test_check_fails_on_doctored_baseline(self, spec_file, tmp_path,
                                              monkeypatch, capsys):
        assert self._run(["run", str(spec_file)], tmp_path, monkeypatch) == 0
        doctored = json.loads((tmp_path / "BENCH_clitest.json").read_text())
        doctored["scenarios"]["probe[x=3]"]["squared"] = 10_000
        (tmp_path / "doctored.json").write_text(json.dumps(doctored))
        code = self._run(
            ["check", "--report", str(tmp_path / "BENCH_clitest.json"),
             "--baseline", str(tmp_path / "doctored.json")],
            tmp_path, monkeypatch,
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_check_report_mode_passes(self, spec_file, tmp_path, monkeypatch):
        assert self._run(["run", str(spec_file)], tmp_path, monkeypatch) == 0
        report = str(tmp_path / "BENCH_clitest.json")
        code = self._run(
            ["check", "--report", report, "--baseline", report],
            tmp_path, monkeypatch,
        )
        assert code == 0

    def test_unknown_campaign_is_usage_error(self, tmp_path, monkeypatch):
        assert self._run(["run", "ghost"], tmp_path, monkeypatch) == 2
        assert self._run(["check", "ghost"], tmp_path, monkeypatch) == 2

    def test_failed_cell_fails_run_and_check(self, probe_scenario, tmp_path,
                                             monkeypatch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "boom",
            "cells": [{"scenario": "probe", "grid": {"boom": [True]}}],
        }))
        assert self._run(["run", str(path)], tmp_path, monkeypatch) == 1
        baseline = tmp_path / "BENCH_boom.json"
        assert baseline.exists()  # partial report still written
        assert self._run(
            ["check", str(path), "--baseline", str(baseline)],
            tmp_path, monkeypatch,
        ) == 1

    def test_list_runs(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "solver" in out and "scenarios:" in out
