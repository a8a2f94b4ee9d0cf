from __future__ import annotations

import json

import pytest

from reuseloop.cli import main
from reuseloop.config import (
    RunConfig,
    apply_overrides,
    build_corpus,
    build_planner,
    config_from_dict,
    default_p_corrupt,
    family_for_mode,
    load_config,
    reference_executor,
    reference_latency,
    resolve_executor,
)
from reuseloop.engine import ALWAYS_LLM, OBSERVATION_ONLY, PROPOSED, PROPOSED_OBSERVATION
from reuseloop.errors import SchemaError
from reuseloop.library import MethodLibrary
from reuseloop.planner import HttpPlanner, MockPlanner


class TestConfigDocuments:
    def test_two_line_config_fills_defaults(self):
        config = config_from_dict({"seed": 3, "mode": "proposed"})
        assert config.seed == 3
        assert config.n_tasks == 20 and config.n_repeats == 5
        assert config.thresholds.tau_r == 0.8
        assert config.executor is None
        assert config.planner.kind == "mock"

    def test_unknown_field_named(self):
        with pytest.raises(SchemaError) as err:
            config_from_dict({"speed": 3})
        assert "speed" in str(err.value)

    def test_bad_mode_named(self):
        with pytest.raises(SchemaError) as err:
            config_from_dict({"mode": "yolo"})
        assert "mode" in str(err.value)

    def test_http_requires_endpoint_and_model(self):
        with pytest.raises(SchemaError) as err:
            config_from_dict({"planner": {"kind": "http"}})
        assert "planner" in str(err.value)

    def test_threshold_range_checked(self):
        for value in (2.0, "0.5", True):
            with pytest.raises(SchemaError) as err:
                config_from_dict({"thresholds": {"tau_r": value}})
            assert "thresholds" in str(err.value)

    def test_executor_fields_must_be_numbers(self):
        for value in ("1.0", True):
            with pytest.raises(SchemaError) as err:
                config_from_dict({"executor": {"base_s": value}})
            assert err.value.field == "executor.base_s"

    def test_p_corrupt_range_checked(self):
        with pytest.raises(SchemaError) as err:
            config_from_dict({"planner": {"p_corrupt": 1.5}})
        assert "p_corrupt" in str(err.value)

    def test_http_planner_settings_range_checked(self):
        cases = [("timeout_s", 0.0), ("timeout_s", -1.0), ("temperature", -3.0), ("retries", -1)]
        for name, value in cases:
            with pytest.raises(SchemaError) as err:
                config_from_dict({"planner": {name: value}})
            assert err.value.field == f"planner.{name}"

    def test_overrides_follow_dotted_paths(self):
        doc = apply_overrides({"seed": 1}, {"planner.p_corrupt": 0.5, "n_tasks": 3})
        config = config_from_dict(doc)
        assert config.planner.p_corrupt == 0.5
        assert config.n_tasks == 3

    def test_unknown_nested_field_named(self):
        cases = [
            ({"planner": {"p_corupt": 0.9}}, "planner.p_corupt"),
            ({"thresholds": {"tau_x": 0.5}}, "thresholds.tau_x"),
            ({"executor": {"base_x": 1.0}}, "executor.base_x"),
        ]
        for doc, field in cases:
            with pytest.raises(SchemaError) as err:
                config_from_dict(doc)
            assert err.value.field == field

    def test_empty_config_is_all_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_integers_widened_in_float_fields(self):
        config = config_from_dict({"executor": {"base_s": 1}, "planner": {"latency_s": 1}})
        assert type(config.executor.base_s) is float
        assert type(config.planner.latency_s) is float


class TestReferenceProfiles:
    def test_latencies(self):
        assert reference_latency("self") == pytest.approx(1.4565)
        assert reference_latency("observation") == pytest.approx(3.2193333333)

    def test_family_mapping(self):
        assert family_for_mode(PROPOSED) == "self"
        assert family_for_mode(ALWAYS_LLM) == "self"
        assert family_for_mode(OBSERVATION_ONLY) == "observation"
        assert family_for_mode(PROPOSED_OBSERVATION) == "observation"

    def test_self_profile_identities(self):
        # The fitted profile must satisfy the two calibration identities for
        # any corpus mean length.
        for mean_len in (3.0, 4.25, 6.0):
            cfg = reference_executor("self", mean_len)
            exec_mean = cfg.base_s + cfg.per_step_s * mean_len
            always = reference_latency("self") + exec_mean
            proposed = cfg.retrieve_s + exec_mean + (
                reference_latency("self") + cfg.collect_s + cfg.train_s + cfg.store_s
            ) / 5
            assert always == pytest.approx(7.7772)
            assert proposed == pytest.approx(6.7779)

    def test_observation_profile_identities(self):
        for mean_len in (3.0, 4.25, 6.0):
            cfg = reference_executor("observation", mean_len)
            latency = reference_latency("observation")
            exec_mean = cfg.base_s + cfg.per_step_s * mean_len
            obs_only = (cfg.observe_s + 4 * (latency + exec_mean)) / 5
            prop_obs = (
                cfg.observe_s + cfg.retrieve_s + latency + cfg.train_s + cfg.store_s
                + 4 * (cfg.retrieve_s + exec_mean)
            ) / 5
            assert obs_only == pytest.approx(7.4969)
            assert prop_obs == pytest.approx(5.5833)

    def test_default_p_corrupt_by_mode(self):
        assert default_p_corrupt(ALWAYS_LLM) == 0.05
        assert default_p_corrupt(PROPOSED) == 0.0
        assert default_p_corrupt(OBSERVATION_ONLY) == 0.0

    def test_explicit_executor_wins(self):
        from reuseloop.engine import ExecutorConfig

        custom = ExecutorConfig(base_s=1.0)
        config = RunConfig(executor=custom)
        assert resolve_executor(config, build_corpus(config)) is custom

    def test_build_planner_kinds(self):
        mock = build_planner(RunConfig())
        assert isinstance(mock, MockPlanner)
        assert mock.latency_s == pytest.approx(1.4565)
        assert mock.p_corrupt == 0.0
        http_config = config_from_dict(
            {"planner": {"kind": "http", "endpoint": "http://x/v1", "model": "m"}}
        )
        assert isinstance(build_planner(http_config), HttpPlanner)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"seed": 7, "mode": "proposed", "output_dir": str(tmp_path / "out")})
    )
    return path


class TestBenchRun:
    def test_writes_outputs_and_reports(self, config_file, tmp_path, capsys):
        code = main(["bench", "run", "--config", str(config_file)])
        assert code == 0
        out_dir = tmp_path / "out"
        for name in ("runs.jsonl", "report.json", "report.csv", "library.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        overall = report["policies"]["proposed"]["overall"]
        assert overall["avg_llm_calls"] == 0.2
        assert overall["avg_total_s"] == 6.7779
        per_repeat = report["policies"]["proposed"]["per_repeat"]
        assert [per_repeat[str(i)]["hit_rate"] for i in range(1, 6)] == [0.0, 1.0, 1.0, 1.0, 1.0]
        library = json.loads((out_dir / "library.json").read_text())
        assert len(library["methods"]) == 20
        assert "proposed" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        names = ("runs.jsonl", "report.json", "report.csv", "library.json")
        main(["bench", "run", "--config", str(config_file)])
        first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        main(["bench", "run", "--config", str(config_file)])
        for n in names:
            assert (tmp_path / "out" / n).read_bytes() == first[n]

    def test_library_only_on_empty_library_fails_every_task(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "library_only", "output_dir": str(tmp_path / "o")}))
        assert main(["bench", "run", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["policies"]["library_only"]["overall"]["success_rate"] == 0.0

    def test_missing_config_is_an_error_without_outputs(self, tmp_path, capsys):
        code = main(["bench", "run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "never")])
        assert code == 2
        assert not (tmp_path / "never").exists()
        assert "error" in capsys.readouterr().err

    def test_invalid_config_field_diagnosed(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "nope"}))
        assert main(["bench", "run", "--config", str(config)]) == 2
        assert "mode" in capsys.readouterr().err

    def test_non_object_config_with_overrides_diagnosed(self, tmp_path, capsys):
        config = tmp_path / "list.json"
        config.write_text("[1]")
        code = main(["bench", "run", "--config", str(config), "--out", str(tmp_path / "o6"),
                     "--seed", "3"])
        assert code == 2
        assert "<root>: expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o6").exists()

    def test_misspelled_override_rejected(self, config_file, tmp_path, capsys):
        code = main(["bench", "run", "--config", str(config_file), "--out", str(tmp_path / "o5"),
                     "--planner.p_corupt", "0.9"])
        assert code == 2
        assert "planner.p_corupt" in capsys.readouterr().err
        assert not (tmp_path / "o5").exists()

    def test_cli_overrides_reach_the_run(self, config_file, tmp_path):
        code = main(
            ["bench", "run", "--config", str(config_file), "--out", str(tmp_path / "o2"),
             "--n_tasks", "5", "--n_repeats", "2"]
        )
        assert code == 0
        runs = (tmp_path / "o2" / "runs.jsonl").read_text().splitlines()
        assert len(runs) == 10

    def test_events_flag_dumps_the_corpus(self, config_file, tmp_path):
        from reuseloop.tasks import load_corpus

        code = main(["bench", "run", "--config", str(config_file),
                     "--out", str(tmp_path / "o4"), "--events"])
        assert code == 0
        assert len(load_corpus(tmp_path / "o4" / "events.json")) == 100

    def test_initial_library_is_not_mutated(self, tmp_path):
        seed_lib = tmp_path / "seed_library.json"
        MethodLibrary().save(seed_lib)
        before = seed_lib.read_bytes()
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"mode": "proposed", "library_path": str(seed_lib),
                 "output_dir": str(tmp_path / "o3"), "n_tasks": 2, "n_repeats": 2}
            )
        )
        assert main(["bench", "run", "--config", str(config)]) == 0
        assert seed_lib.read_bytes() == before
        grown = json.loads((tmp_path / "o3" / "library.json").read_text())
        assert len(grown["methods"]) == 2


class TestBenchReport:
    def test_round_trip_matches_run_report(self, config_file, tmp_path, capsys):
        main(["bench", "run", "--config", str(config_file)])
        out_dir = tmp_path / "out"
        original = (out_dir / "report.json").read_bytes()
        code = main(["bench", "report", "--runs", str(out_dir / "runs.jsonl")])
        assert code == 0
        assert (out_dir / "report.json").read_bytes() == original
        assert "proposed" in capsys.readouterr().out

    def test_empty_file_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "runs.jsonl"
        empty.write_text("")
        assert main(["bench", "report", "--runs", str(empty)]) == 2

    def test_malformed_line_reports_number(self, config_file, tmp_path, capsys):
        main(["bench", "run", "--config", str(config_file)])
        runs = tmp_path / "out" / "runs.jsonl"
        lines = runs.read_text().splitlines()
        lines[4] = "{broken"
        runs.write_text("\n".join(lines))
        assert main(["bench", "report", "--runs", str(runs)]) == 2
        assert "line 5" in capsys.readouterr().err

    def test_impossible_values_rejected(self, config_file, tmp_path, capsys):
        main(["bench", "run", "--config", str(config_file)])
        runs = tmp_path / "out" / "runs.jsonl"
        lines = runs.read_text().splitlines()
        lines[2] = json.dumps({**json.loads(lines[2]), "total_s": 99.0})
        runs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["bench", "report", "--runs", str(runs)]) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "total_s" in err

    def test_single_record_report(self, config_file, tmp_path):
        main(["bench", "run", "--config", str(config_file)])
        runs = tmp_path / "out" / "runs.jsonl"
        runs.write_text(runs.read_text().splitlines()[0] + "\n")
        assert main(["bench", "report", "--runs", str(runs)]) == 0


class TestLibraryInspect:
    def test_empty_library(self, tmp_path, capsys):
        path = tmp_path / "library.json"
        MethodLibrary().save(path)
        assert main(["library", "inspect", "--path", str(path)]) == 0
        assert "0 methods" in capsys.readouterr().out

    def test_post_benchmark_library(self, config_file, tmp_path, capsys):
        main(["bench", "run", "--config", str(config_file)])
        capsys.readouterr()
        path = tmp_path / "out" / "library.json"
        assert main(["library", "inspect", "--path", str(path)]) == 0
        assert "20 methods" in capsys.readouterr().out

    def test_corrupted_file(self, tmp_path, capsys):
        path = tmp_path / "library.json"
        path.write_text('{"version": 1, "methods": [{"id": "m"}]}')
        assert main(["library", "inspect", "--path", str(path)]) == 2
        assert "methods[0]" in capsys.readouterr().err


class TestCostAnalyze:
    @pytest.fixture
    def profile_file(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps(
                {"c_retrieve": 0.01, "c_exec": 6.0, "c_plan": 1.5,
                 "c_collect": 0.5, "c_train": 0.3, "c_store": 0.05}
            )
        )
        return path

    def test_worked_example(self, profile_file, capsys):
        code = main(["cost", "analyze", "--profile", str(profile_file), "--rho", "1.0", "--k", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "6.8500" in out
        assert "yes" in out

    def test_zero_rho_still_exits_zero(self, profile_file, capsys):
        code = main(["cost", "analyze", "--profile", str(profile_file), "--rho", "0", "--k", "4"])
        assert code == 0
        assert "no" in capsys.readouterr().out

    def test_negative_cost_rejected(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"c_exec": -2}))
        assert main(["cost", "analyze", "--profile", str(path), "--rho", "1", "--k", "4"]) == 2
        assert "c_exec" in capsys.readouterr().err

    def test_rho_out_of_range(self, profile_file, capsys):
        assert main(["cost", "analyze", "--profile", str(profile_file), "--rho", "2", "--k", "4"]) == 2


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1}))
    config = load_config(path, {"planner.latency_s": 0.9})
    assert config.planner.latency_s == 0.9


def test_unconsumed_arguments_rejected_outside_bench_run(tmp_path, capsys):
    path = tmp_path / "library.json"
    MethodLibrary().save(path)
    assert main(["library", "inspect", "--path", str(path), "--bogus", "1"]) == 2
