from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reuseloop.cli import _read_config, main
from reuseloop.config import (
    PlannerSettings,
    RunConfig,
    build_corpus,
    build_planner,
    default_p_corrupt,
    family_for_mode,
    reference_executor,
    reference_latency,
    resolve_executor,
)
from reuseloop.engine import ALWAYS_LLM, OBSERVATION_ONLY, PROPOSED, PROPOSED_OBSERVATION
from reuseloop.errors import SchemaError, read_dataclass
from reuseloop.library import LIBRARY_VERSION, MethodLibrary
from reuseloop.planner import MockPlanner
from reuseloop.tasks import generate_corpus

from conftest import make_method

ROOT = Path(__file__).resolve().parents[1]


class TestConfigDocuments:
    def test_two_line_config_fills_defaults(self):
        config = read_dataclass(RunConfig, {"seed": 3, "mode": "proposed"})
        assert config.seed == 3
        assert config.n_tasks == 20 and config.n_repeats == 5
        assert config.thresholds.tau_r == 0.8
        assert config.executor is None
        assert (config.planner.latency_s, config.planner.p_corrupt) == (None, None)

    def test_unknown_field_named(self):
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, {"speed": 3})
        assert "speed" in str(err.value)

    def test_bad_mode_named(self):
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, {"mode": "yolo"})
        assert "mode" in str(err.value)

    def test_http_requires_endpoint_and_model(self):
        # No kind of planner is configurable now, so an HTTP planner config
        # is refused at its kind, with or without an endpoint and a model.
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, {"planner": {"kind": "http"}})
        assert (err.value.field, err.value.message) == ("planner.kind", "unknown field")

    def test_threshold_range_checked(self):
        for value in (2.0, "0.5", True):
            with pytest.raises(SchemaError) as err:
                read_dataclass(RunConfig, {"thresholds": {"tau_r": value}})
            assert "thresholds" in str(err.value)

    def test_executor_fields_must_be_numbers(self):
        for value in ("1.0", True):
            with pytest.raises(SchemaError) as err:
                read_dataclass(RunConfig, {"executor": {"base_s": value}})
            assert err.value.field == "executor.base_s"

    def test_p_corrupt_range_checked(self):
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, {"planner": {"p_corrupt": 1.5}})
        assert "p_corrupt" in str(err.value)

    def test_http_planner_settings_range_checked(self):
        # The HTTP settings are gone, so any value of one, in range or out,
        # is refused at that field rather than silently ignored.
        cases = [("timeout_s", 0.0), ("timeout_s", -1.0), ("temperature", -3.0), ("retries", -1)]
        for name, value in cases:
            with pytest.raises(SchemaError) as err:
                read_dataclass(RunConfig, {"planner": {name: value}})
            assert (err.value.field, err.value.message) == (f"planner.{name}", "unknown field")

    def test_overrides_follow_dotted_paths(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        config = _read_config(str(path), ["--planner.p_corrupt", "0.5", "--n_tasks", "3"])
        assert config.planner.p_corrupt == 0.5
        assert config.n_tasks == 3

    def test_trailing_key_without_value_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(SchemaError) as err:
            _read_config(str(path), ["--seed", "3", "--n_tasks"])
        assert err.value.field == "<args>"
        assert "'--n_tasks'" in str(err.value)

    def test_non_json_override_read_as_string(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        assert _read_config(str(path), ["--mode", "always_llm"]).mode == "always_llm"

    def test_override_crossing_a_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(SchemaError) as err:
            _read_config(str(path), ["--seed.value", "3"])
        assert err.value.field == "seed.value"
        assert "crosses a non-object" in str(err.value)

    def test_unknown_nested_field_named(self):
        cases = [
            ({"planner": {"p_corupt": 0.9}}, "planner.p_corupt"),
            ({"thresholds": {"tau_x": 0.5}}, "thresholds.tau_x"),
            ({"executor": {"base_x": 1.0}}, "executor.base_x"),
        ]
        for doc, field in cases:
            with pytest.raises(SchemaError) as err:
                read_dataclass(RunConfig, doc)
            assert err.value.field == field

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"": 1}, '[""]'),
            ({"planner": {"": 1}}, 'planner[""]'),
            ({"a.b": 1}, '["a.b"]'),
            ({"thresholds": {"tau r": 0.5}}, 'thresholds["tau r"]'),
            ({"version": LIBRARY_VERSION, "methods": [{"": 1}]}, 'methods[0][""]'),
        ],
        ids=["root", "nested", "dotted", "spaced", "library-method"],
    )
    def test_unknown_key_that_is_not_a_name_is_bracketed(self, doc, field):
        # Named by its JSON text, so neither the root nor a nested path is blamed.
        read = MethodLibrary.from_doc if "methods" in doc else lambda d: read_dataclass(RunConfig, d)
        with pytest.raises(SchemaError) as err:
            read(doc)
        assert (err.value.field, err.value.message) == (field, "unknown field")

    @pytest.mark.parametrize("changes, message", [
        ({"n_tasks": 2.0, "n_repeats": 2}, "n_tasks must be an integer, not float"),
        ({"n_repeats": 2.0}, "n_repeats must be an integer, not float"),
        ({"seed": True, "n_tasks": True, "n_repeats": True}, "seed must be an integer, not a bool"),
        ({"n_tasks": True}, "n_tasks must be an integer, not a bool"),
        ({"n_repeats": False}, "n_repeats must be an integer, not a bool"),
    ], ids=["float-tasks", "float-repeats", "bool-seed", "bool-tasks", "bool-repeats"])
    def test_run_config_refuses_what_its_reader_refuses(self, changes, message):
        # A float count failed in build_corpus's slice; bools built a 1-task corpus.
        for build in (lambda: RunConfig(**changes), lambda: dataclasses.replace(RunConfig(), **changes)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()
        name = next(iter(changes))
        if name != "seed":  # generate_corpus checks the counts too
            with pytest.raises(ValueError, match=f"^{message}$"):
                generate_corpus(**{"seed": 1, "n_tasks": 2, "n_repeats": 2, **changes})
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, changes)
        assert err.value.field == name

    def test_planner_settings_refuse_a_bool(self):
        for build, message in (
            (lambda: PlannerSettings(latency_s=True, p_corrupt=False), "latency_s"),
            (lambda: PlannerSettings(p_corrupt=False), "p_corrupt"),
            (lambda: dataclasses.replace(PlannerSettings(), latency_s=False), "latency_s"),
        ):
            with pytest.raises(ValueError, match=f"^{message} must be a number, not a bool$"):
                build()
        assert PlannerSettings(latency_s=1, p_corrupt=0).latency_s == 1

    def test_empty_config_is_all_defaults(self):
        assert read_dataclass(RunConfig, {}) == RunConfig()

    def test_integers_widened_in_float_fields(self):
        doc = {"executor": {"base_s": 1}, "planner": {"latency_s": 1}}
        config = read_dataclass(RunConfig, doc)
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

    @pytest.mark.parametrize("family", ["self", "observation"])
    def test_mean_length_past_the_profile_rejected(self, family):
        # base_s would go negative: the cut-off is ~18 steps (self), ~17.4 (observation).
        with pytest.raises(ValueError, match="^mean sequence length too large"):
            reference_executor(family, 20.0)

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
        # One kind: every config builds the mock, and no config names a kind.
        mock = build_planner(RunConfig())
        assert isinstance(mock, MockPlanner)
        assert mock.latency_s == pytest.approx(1.4565)
        assert mock.p_corrupt == 0.0
        with pytest.raises(SchemaError) as err:
            read_dataclass(RunConfig, {"planner": {"kind": "mock"}})
        assert (err.value.field, err.value.message) == ("planner.kind", "unknown field")


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

    def test_http_planner_config_refused(self, tmp_path, capsys):
        # A config written for the deleted HTTP planner stops with its first
        # field named; it never runs the mock in its place.
        config = tmp_path / "http.json"
        config.write_text(json.dumps(
            {"planner": {"kind": "http", "endpoint": "http://x/v1", "model": "m"}}
        ))
        code = main(["bench", "run", "--config", str(config), "--out", str(tmp_path / "o8")])
        assert code == 2
        out, err = capsys.readouterr()
        assert "planner.kind: unknown field" in err
        assert out == ""
        assert not (tmp_path / "o8").exists()

    def test_run_is_offline_by_construction(self, tmp_path):
        # A shipped run imports no network module at all; pathlib brings in
        # only urllib.parse.
        script = (
            "import sys\n"
            "from reuseloop.cli import main\n"
            f"assert main(['bench', 'run', '--config', 'configs/self_proposed.json', "
            f"'--out', {str(tmp_path / 'o9')!r}]) == 0\n"
            "print(sorted({'socket', 'ssl', 'http.client', 'urllib.request'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=60, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_override_with_an_empty_key_named(self, config_file, tmp_path, capsys):
        code = main(["bench", "run", "--config", str(config_file), "--out", str(tmp_path / "o7"),
                     "--.seed", "5"])
        assert code == 2
        assert '[""]: unknown field' in capsys.readouterr().err
        assert not (tmp_path / "o7").exists()

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


    def test_warm_started_rerun_renames_a_taken_id(self, config_file, tmp_path):
        # At tau_q 0.7 a 1/1 method's confidence (2/3) is too low, so every
        # event relearns, at the cycles the loaded library already used.
        args = ["bench", "run", "--config", str(config_file), "--thresholds.tau_q", "0.7"]
        assert main([*args, "--out", str(tmp_path / "w1")]) == 0
        first = MethodLibrary.load(tmp_path / "w1" / "library.json")
        assert main([*args, "--out", str(tmp_path / "w2"),
                     "--library_path", str(tmp_path / "w1" / "library.json")]) == 0
        second = MethodLibrary.load(tmp_path / "w2" / "library.json")
        old = [m.id for m in first.methods()]
        assert [m.id for m in second.methods()] == old + [f"{i}-1" for i in old]

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
    @staticmethod
    def _rows(methods, tmp_path, capsys) -> list[str]:
        """``library inspect``'s table rows for a library of ``methods``."""
        path = tmp_path / "library.json"
        MethodLibrary(methods).save(path)
        assert main(["library", "inspect", "--path", str(path)]) == 0
        return capsys.readouterr().out.splitlines()[3:]

    def test_empty_library(self, tmp_path, capsys):
        path = tmp_path / "library.json"
        MethodLibrary().save(path)
        assert main(["library", "inspect", "--path", str(path)]) == 0
        assert capsys.readouterr().out == "0 methods\n"

    def test_hand_written_empty_document(self, tmp_path, capsys):
        path = tmp_path / "library.json"
        path.write_text(json.dumps({"version": LIBRARY_VERSION, "methods": []}))
        assert main(["library", "inspect", "--path", str(path)]) == 0
        assert capsys.readouterr().out == "0 methods\n"

    def test_ratio_printed_to_four_decimals(self, tmp_path, capsys):
        (row,) = self._rows([make_method("m-a", successes=1, attempts=7)], tmp_path, capsys)
        assert row.split()[2] == "0.1429"

    def test_rows_ordered_by_id(self, tmp_path, capsys):
        methods = [make_method(method_id) for method_id in ("m-c", "m-a", "m-b")]
        rows = self._rows(methods, tmp_path, capsys)
        assert [row.split()[0] for row in rows] == ["m-a", "m-b", "m-c"]

    def test_two_method_table(self, tmp_path, capsys):
        path = tmp_path / "library.json"
        MethodLibrary([
            make_method("m-b", procedure=("move", "grasp"), successes=2, attempts=3),
            make_method("m-a", goal_tokens=("open", "door"), successes=1, attempts=1),
        ]).save(path)
        assert main(["library", "inspect", "--path", str(path)]) == 0
        assert capsys.readouterr().out == (
            "2 methods\n"
            "id                       steps  success_ratio  goal_tokens\n"
            "----------------------------------------------------------\n"
            "m-a                          3         1.0000            2\n"
            "m-b                          2         0.6667            4\n"
        )

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

    @pytest.mark.parametrize("profile, code", [
        ("configs/cost_profile.json", 0), ("configs/no_such_profile.json", 2),
    ])
    def test_module_entry_point_exits_with_mains_code(self, profile, code):
        # ``python -m reuseloop.cli`` runs the module's ``__main__`` guard.
        proc = subprocess.run(
            [sys.executable, "-m", "reuseloop.cli", "cost", "analyze", "--profile", profile,
             "--rho", "1", "--k", "4"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True,
            timeout=60, check=False,
        )
        assert proc.returncode == code, proc.stdout + proc.stderr
        assert ("error: " in proc.stderr) == (code == 2)


def test_config_file_with_overrides(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1}))
    config = _read_config(str(path), ["--planner.latency_s", "0.9"])
    assert config.planner.latency_s == 0.9


def test_unconsumed_arguments_rejected_outside_bench_run(tmp_path, capsys):
    path = tmp_path / "library.json"
    MethodLibrary().save(path)
    assert main(["library", "inspect", "--path", str(path), "--bogus", "1"]) == 2
