"""Round-trip, fingerprint-stability and CLI tests of the declarative spec API.

The hard contract of the PR 5 redesign: the spec-driven drivers must build
*the same* sweep tasks — byte-identical ``SweepTask.fingerprint()`` values,
same labels and repetition counts, in the same order — as the hand-written
experiment modules they replaced.  ``tests/data/experiment_task_fingerprints.json``
is a golden capture taken from the PR 4 tree (see
``tests/fingerprint_capture.py``) and must never be regenerated from
post-redesign code; ``tests/data/prebuilt_cache`` is a ResultStore populated
by the PR 4 tree, replayed here with zero dispatches.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from fingerprint_capture import GOLDEN_PATH, capture_fingerprints
from repro.experiments import (
    ExperimentSpec,
    SpecValidationError,
    describe_spec,
    load_spec,
    run_spec,
)
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.driver import resolve_context
from repro.experiments.spec import evaluate_expression, render_template
from repro.registry import EXPERIMENT_SPECS

DATA_DIR = Path(__file__).parent / "data"
EXAMPLE_SPEC = Path(__file__).parent.parent / "examples" / "specs" / "clustered_jamming.toml"

ALL_IDS = ["FIG5", "JAM", "FIG6", "FIG7", "CLUST", "MAPSZ", "EPID", "DUAL"]


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_json_round_trip(self, experiment_id):
        spec = EXPERIMENT_SPECS.get(experiment_id)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_toml_round_trip(self, experiment_id):
        spec = EXPERIMENT_SPECS.get(experiment_id)
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_example_spec_file_loads_and_round_trips(self):
        spec = load_spec(EXAMPLE_SPEC)
        assert spec.name == "CLUSTJAM"
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert ExperimentSpec.from_toml(spec.to_toml()) == spec

    def test_round_trip_preserves_numeric_types(self):
        # 4.0 and 4 fingerprint differently, so serialization must not
        # collapse float/int distinctions.
        spec = EXPERIMENT_SPECS.get("FIG5")
        reparsed = ExperimentSpec.from_json(spec.to_json())
        assert isinstance(reparsed.params["map_size"], float)
        assert isinstance(reparsed.params["message_length"], int)
        reparsed_toml = ExperimentSpec.from_toml(spec.to_toml())
        assert isinstance(reparsed_toml.params["map_size"], float)
        assert isinstance(reparsed_toml.params["message_length"], int)


class TestSpecValidation:
    def test_unknown_fields_listed(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict({"name": "X", "title": "x", "bogus": 1, "wrong": 2})
        assert "bogus" in str(excinfo.value) and "wrong" in str(excinfo.value)

    def test_missing_required_fields_listed(self):
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict({"driver": "sweep"})
        assert "name" in str(excinfo.value) and "title" in str(excinfo.value)

    def test_malformed_axes_rejected(self):
        with pytest.raises(SpecValidationError, match="axis #0"):
            ExperimentSpec(name="X", title="x", axes=({"name": "a"},))

    def test_unknown_scale_is_value_error(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_spec(EXPERIMENT_SPECS.get("MAPSZ"), scale="huge")

    def test_toml_rejects_nested_null(self):
        spec = ExperimentSpec(name="X", title="x", params={"hole": None})
        with pytest.raises(SpecValidationError, match="null"):
            spec.to_toml()


class TestContextResolution:
    def test_overrides_follow_scale_and_precede_derived(self):
        # The documented precedence: params -> scale -> overrides -> derived.
        spec = EXPERIMENT_SPECS.get("FIG5")
        assert resolve_context(spec)["map_size"] == 24.0
        small = resolve_context(spec, scale="small")
        assert small["map_size"] == 8.0 and small["repetitions"] == 2
        context = resolve_context(
            spec, scale="small", overrides={"map_size": 10.0, "repetitions": 5}
        )
        # An override beats the scale's value for the same key; keys it does
        # not name keep the scale's value.
        assert context["map_size"] == 10.0 and context["repetitions"] == 5
        assert context["deployed_density"] == small["deployed_density"] == 2.2
        # Derived values are recomputed from the overridden inputs, and win
        # over an override of the derived key itself.
        assert small["num_deployed"] == int(round(2.2 * 8.0 * 8.0))
        assert context["num_deployed"] == int(round(2.2 * 10.0 * 10.0))
        pinned = resolve_context(spec, scale="small", overrides={"num_deployed": 5})
        assert pinned["num_deployed"] == small["num_deployed"]
        # An unknown scale is still a validation error, overrides or not.
        with pytest.raises(SpecValidationError, match="unknown scale"):
            resolve_context(spec, scale="huge", overrides={"map_size": 10.0})


class TestExpressionLanguage:
    def test_arithmetic_and_calls(self):
        ctx = {"density": 1.5, "size": 8.0}
        assert evaluate_expression("max(10, int(round(density * size * size)))", ctx) == 96

    def test_conditional_and_containers(self):
        ctx = {"clustered": True, "n": 5}
        value = evaluate_expression(
            "{'kind': 'clustered', 'n': n} if clustered else {'kind': 'uniform'}", ctx
        )
        assert value == {"kind": "clustered", "n": 5}

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(SpecValidationError, match="known names"):
            evaluate_expression("nope + 1", {"yep": 1})

    def test_non_whitelisted_call_rejected(self):
        with pytest.raises(SpecValidationError, match="whitelisted"):
            evaluate_expression("__import__('os')", {})

    def test_attribute_access_rejected(self):
        with pytest.raises(SpecValidationError, match="unsupported syntax"):
            evaluate_expression("x.__class__", {"x": 1})

    def test_dollar_escape(self):
        assert render_template("$$literal", {}) == "$literal"
        assert render_template("plain", {}) == "plain"
        assert render_template({"k": "$a + 1"}, {"a": 1}) == {"k": 2}


class TestFingerprintGolden:
    """Task identity vs the pre-redesign capture (warm caches must keep hitting)."""

    @pytest.fixture(scope="class")
    def golden(self):
        with GOLDEN_PATH.open(encoding="utf8") as handle:
            return json.load(handle)

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    @pytest.mark.parametrize("scale", ["small", "paper"])
    def test_fingerprints_match_pre_redesign_capture(self, golden, experiment_id, scale):
        fresh = capture_fingerprints(experiment_id, scale)
        assert fresh == golden[experiment_id][scale]


class TestWarmCacheReplay:
    def test_pre_redesign_cache_replays_with_zero_dispatches(self, tmp_path):
        from repro.store import ResultStore

        cache_dir = tmp_path / "cache"
        shutil.copytree(DATA_DIR / "prebuilt_cache", cache_dir)
        store = ResultStore(cache_dir)
        for experiment_id in ("DUAL", "MAPSZ"):
            store.stats.reset()
            rows = run_spec(EXPERIMENT_SPECS.get(experiment_id), scale="small", store=store)
            assert rows, experiment_id
            assert store.stats.misses == 0, (
                f"{experiment_id}: a pre-redesign cache entry stopped matching "
                f"({store.stats.snapshot()})"
            )
            assert store.stats.hits > 0


class TestCli:
    def run_cli(self, capsys, *argv):
        code = experiments_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("experiment_id", ALL_IDS)
    def test_describe_every_id(self, capsys, experiment_id):
        code, out, _err = self.run_cli(capsys, "describe", experiment_id)
        assert code == 0
        assert experiment_id in out
        assert "resolved parameters" in out

    def test_describe_with_scale(self, capsys):
        code, out, _err = self.run_cli(capsys, "describe", "FIG5", "--scale", "paper")
        assert code == 0
        assert "showing: paper" in out

    def test_describe_spec_file(self, capsys):
        code, out, _err = self.run_cli(capsys, "describe", "--spec", str(EXAMPLE_SPEC))
        assert code == 0
        assert "CLUSTJAM" in out

    def test_list_subcommand(self, capsys):
        code, out, _err = self.run_cli(capsys, "list")
        assert code == 0
        for experiment_id in ALL_IDS:
            assert experiment_id in out

    def test_unknown_id_exits_2_listing_ids(self, capsys):
        code, _out, err = self.run_cli(capsys, "run", "FIG99")
        assert code == 2
        assert "unknown experiment" in err
        for experiment_id in ALL_IDS:
            assert experiment_id in err

    def test_describe_unknown_id_exits_2(self, capsys):
        code, _out, err = self.run_cli(capsys, "describe", "FIG99")
        assert code == 2
        assert "unknown experiment" in err

    def test_malformed_spec_file_exits_2_with_errors(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "X"\nbogus = 1\nwrong = 2\n', encoding="utf8")
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "bogus" in err and "wrong" in err and "missing required" in err

    def test_unreadable_spec_file_exits_2(self, capsys, tmp_path):
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(tmp_path / "nope.toml"))
        assert code == 2
        assert "cannot read spec file" in err

    def test_invalid_toml_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text("name = \n", encoding="utf8")
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "invalid TOML" in err

    def test_id_and_spec_together_exit_2(self, capsys):
        code, _out, err = self.run_cli(capsys, "run", "FIG5", "--spec", str(EXAMPLE_SPEC))
        assert code == 2
        assert "not both" in err

    def test_unknown_scale_exits_2(self, capsys):
        code, _out, err = self.run_cli(capsys, "run", "FIG5", "--scale", "huge")
        assert code == 2
        assert "unknown scale" in err

    def test_unknown_component_in_spec_exits_2(self, capsys, tmp_path):
        # A typo'd registry key surfaces mid-run; still a usage error, not a
        # traceback.
        bad = tmp_path / "bad_component.json"
        spec = load_spec(EXAMPLE_SPEC)
        data = spec.to_dict()
        data["deployment"] = {**data["deployment"], "kind": "unifrm"}
        bad.write_text(json.dumps(data), encoding="utf8")
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "unknown deployment 'unifrm'" in err and "clustered" in err

    @pytest.mark.parametrize("command", ["run", "describe"])
    @pytest.mark.parametrize(
        "line,message",
        [
            ("schedule_separation = nan", "schedule_separation must be a finite number > 0"),
            ("bogus_knob = 3", "unexpected keyword argument 'bogus_knob'"),
            ('message = "abc"', "invalid literal for int()"),
            ("capture_probability = 1.5", "capture_probability must be a number in [0, 1]"),
            ('loss_probability = "abc"', "loss_probability must be a number in [0, 1]"),
            ('max_rounds = "10"', "max_rounds must be an integer >= 1"),
        ],
        ids=[
            "out-of-range", "unknown-key", "wrong-type",
            "capture-out-of-range", "loss-wrong-type", "max-rounds-wrong-type",
        ],
    )
    def test_invalid_scenario_table_exits_2(self, capsys, tmp_path, command, line, message):
        # ScenarioConfig rejects the [scenario] table while the sweep tasks
        # are built: one error line naming the spec, not a traceback, and no
        # repetition runs (a bad probability used to quarantine every
        # repetition, a string round cap to run through int()).
        source = EXAMPLE_SPEC.parent / "multipath_lying_smoke.toml"
        anchor = 'multipath_tolerance = "$tolerance"\n'
        text = source.read_text(encoding="utf8")
        assert anchor in text
        bad = tmp_path / "bad_scenario.toml"
        bad.write_text(text.replace(anchor, anchor + line + "\n"), encoding="utf8")
        code, out, err = self.run_cli(capsys, command, "--spec", str(bad))
        assert code == 2
        assert out == ""
        (error,) = err.splitlines()
        assert error.startswith("error: MPLIE-SMOKE: [scenario] ")
        assert message in error

    def test_undeclared_scale_on_scaleless_spec_exits_2(self, capsys):
        # The example spec declares no scales; an *explicit* non-default scale
        # must error rather than silently running base parameters.
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(EXAMPLE_SPEC), "--scale", "paper")
        assert code == 2
        assert "unknown scale 'paper'" in err

    def test_top_level_help_reachable(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "run" in out and "describe" in out and "list" in out

    @pytest.mark.parametrize(
        "argv",
        [["FIG5"], ["--scale", "small", "FIG5"], ["--list"], []],
        ids=["bare-id", "flags-first", "list-flag", "empty"],
    )
    def test_subcommand_is_required(self, capsys, argv):
        # Only the subcommand grammar parses: a bare id, flags first, --list
        # and an empty command line are argparse usage errors.
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_run_accepts_flags_before_id(self, capsys):
        # Flags may still precede the id, inside the run subcommand.
        code, _out, err = self.run_cli(capsys, "run", "--scale", "small", "FIG99")
        assert code == 2
        assert "unknown experiment" in err

    def test_run_by_id_matches_run_by_spec_file(self, capsys, tmp_path):
        # A registered id and the same spec written to a file take one path:
        # the exported rows are byte-identical.
        path = tmp_path / "dual.toml"
        path.write_text(EXPERIMENT_SPECS.get("DUAL").to_toml(), encoding="utf8")
        code, by_id, _err = self.run_cli(
            capsys, "run", "DUAL", "--scale", "small", "--export", "json"
        )
        assert code == 0
        code, by_file, _err = self.run_cli(
            capsys, "run", "--spec", str(path), "--scale", "small", "--export", "json"
        )
        assert code == 0
        assert by_file == by_id
        assert json.loads(by_id)

    def test_tolerance_search_spec_missing_candidates_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "search.json"
        bad.write_text(
            json.dumps({"name": "S", "title": "s", "driver": "tolerance_search"}),
            encoding="utf8",
        )
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "options.candidates" in err

    def test_dual_mode_spec_missing_params_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "dual.json"
        bad.write_text(
            json.dumps({"name": "D", "title": "d", "driver": "dual_mode"}), encoding="utf8"
        )
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "dual_mode driver requires" in err

    def test_bad_label_template_exits_2(self, capsys, tmp_path):
        spec = load_spec(EXAMPLE_SPEC)
        data = spec.to_dict()
        data["label"] = "budget={typo}"
        bad = tmp_path / "label.json"
        bad.write_text(json.dumps(data), encoding="utf8")
        code, _out, err = self.run_cli(capsys, "run", "--spec", str(bad))
        assert code == 2
        assert "label template" in err

    def test_run_spec_file_end_to_end(self, capsys):
        code, out, _err = self.run_cli(capsys, "run", "--spec", str(EXAMPLE_SPEC))
        assert code == 0
        assert "CLUSTJAM" in out
        assert "budget=0" in out and "budget=6" in out


class TestExperimentRegistry:
    def test_experiment_specs_mapping(self):
        assert list(EXPERIMENT_SPECS) == ALL_IDS
        assert [key for key, _spec in EXPERIMENT_SPECS.items()] == ALL_IDS
        assert EXPERIMENT_SPECS.get("FIG5").title.startswith("Crash resilience")
        assert len(EXPERIMENT_SPECS) == 8

    def test_describe_spec_mentions_driver_and_grid(self):
        text = describe_spec(EXPERIMENT_SPECS.get("FIG7"), scale="small")
        assert "tolerance_search" in text
        assert "axes" in text
