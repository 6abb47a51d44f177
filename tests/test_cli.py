"""CLI: exit codes, determinism, report/manifest plumbing."""

import argparse
import dataclasses
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import compnet as cn
from compnet.activations import ActivationError
from compnet.cli import build_parser, main, replay_manifest, write_report


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert "frobnicate" in err and "usage" in err.lower()

    def test_unknown_flag_lists_itself(self, capsys):
        assert main(["synth", "--out", "x", "--bogus-flag"]) == 1
        assert "--bogus-flag" in capsys.readouterr().err
        # construction has no candidate cap, so no flag lifts one
        assert main(["compose", "dbcn", "--pool", "p.json", "--data", "d.csv", "--allow-large"]) == 1
        assert "--allow-large" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_runtime_error_is_2(self, capsys):
        assert main(["solve-linear", "--data", "/no/such/file.csv"]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_conflicting_flags_named_pairwise(self, capsys):
        assert main(["impute", "--demo", "--grid", "g.csv"]) == 1
        err = capsys.readouterr().err
        assert "--grid" in err and "--demo" in err
        assert main(["verify", "theorem1", "--h", "3", "--trials", "150"]) == 1
        err = capsys.readouterr().err
        assert "--h" in err and "theorem1" in err

    def test_synth_k_with_qualities_is_usage_error(self, capsys, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", "--k", "5", "--qualities", "0.1,0.2", "--out", str(out)]) == 1
        message = capsys.readouterr().err.splitlines()[0]
        assert "--k conflicts with --qualities" in message
        assert not out.exists()

    def test_success_is_0(self, capsys, tmp_path):
        assert main(["impute", "--demo", "--k", "2"]) == 0

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["compose", "dbcn"], "--k0"),
            (["compose", "exhaustive", "--schedule", "chain"], "--k0"),
            (["compose", "exhaustive"], "--delta"),
            (["verify", "orthogonality"], "--k"),
            (["verify", "orthogonality"], "--noise"),
            (["verify", "scaled-activation"], "--trials"),
            *(
                (["verify", claim], flag)
                for flag in ("--activation", "--epsilon")
                for claim in ("theorem1", "prop1", "theorem2", "orthogonality")
            ),
        ],
        ids=lambda v: "-".join(t.lstrip("-") for t in (v[1:] if isinstance(v, list) else [v])),
    )
    def test_flag_the_mode_does_not_read_is_usage_error(self, capsys, command, flag):
        value = "logistic" if flag == "--activation" else "1"
        inputs = ["--pool", "p.json", "--data", "d.csv"] if command[0] == "compose" else []
        assert main([*command, *inputs, flag, value]) == 1
        message = capsys.readouterr().err.splitlines()[0]
        assert flag + " conflicts" in message and f"'{command[1]}" in message


class TestHelp:
    def test_every_subcommand_flag_documented(self, capsys):
        parser = build_parser()
        for name, flags in {
            "synth": ["--seed", "--n", "--k", "--out"],
            "solve-linear": ["--data", "--ridge"],
            "compose": ["--pool", "--data", "--delta", "--activations", "--seed", "--report"],
            "verify": ["--n", "--k", "--trials", "--seed", "--h"],
            "impute": ["--grid", "--k", "--out"],
        }.items():
            with pytest.raises(SystemExit):
                parser.parse_args([name, "--help"])
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, f"{name} help missing {flag}"

    def test_readme_names_only_real_flags(self):
        """Every --flag that README's "Command line" and "File formats"
        sections name is an option of some subcommand, so a deleted flag
        cannot live on in the docs."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sections = re.findall(
            r"^## (?:Command line|File formats)\n(.*?)(?=^## |\Z)", text, re.MULTILINE | re.DOTALL
        )
        assert len(sections) == 2
        named = set(re.findall(r"--[a-z][a-z0-9-]*", "".join(sections)))
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            opt for p in (parser, *sub.choices.values()) for a in p._actions for opt in a.option_strings
        }
        assert named and not named - options, sorted(named - options)

    def test_readme_task_spec_entry_names_every_field(self):
        """README's task-spec entry lists the keys of the one field list."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(r"^## File formats\n(.*?)(?=^## |\Z)", text, re.MULTILINE | re.DOTALL)
        entry = re.search(
            r"^- \*\*task spec\*\*(.*?)(?=^- \*\*|\Z)", section[1], re.MULTILINE | re.DOTALL
        )
        named = set(re.findall(r"`([^`]+)`", entry[1]))
        missing = [f.name for f in dataclasses.fields(cn.SyntheticTaskSpec) if f.name not in named]
        assert not missing, missing


class TestSynth:
    def test_qualities_set_one_component_each(self, tmp_path, capsys):
        out, rep = tmp_path / "q", tmp_path / "synth.json"
        argv = ["synth", "--seed", "2", "--n", "80", "--d", "3", "--qualities", "0.05,0.4",
                "--out", str(out), "--report", str(rep)]
        assert main(argv) == 0
        payload = json.loads(rep.read_text())
        assert payload["task"]["component_quality"] == [0.05, 0.4]
        losses = payload["component_train_losses"]
        assert list(losses) == ["f1", "f2"] and losses["f1"] < losses["f2"]
        bundle = json.loads((out / "components.json").read_text())
        assert [c["id"] for c in bundle["components"]] == ["f1", "f2"]

    def test_no_components_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--k", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "DataError: component_quality needs at least one entry" in err
        assert not out.exists()

    def test_unparseable_quality_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["synth", "--qualities", "0.1,x", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "DataError: --qualities: could not convert string to float: 'x'" in err
        assert not out.exists()

    def test_teacher_label_width_and_split_reach_the_bundle(self, tmp_path, capsys):
        out = tmp_path / "s"
        argv = ["synth", "--teacher", "linear", "--m", "2", "--train-fraction", "0.5",
                "--n", "40", "--d", "3", "--k", "2", "--out", str(out)]
        assert main(argv) == 0
        header, *rows = (out / "data.csv").read_text().splitlines()
        assert header == "x1,x2,x3,y1,y2,split"
        splits = [row.rsplit(",", 1)[1] for row in rows]
        assert splits.count("train") == splits.count("test") == 20
        bundle = json.loads((out / "components.json").read_text())
        assert bundle["labels"] == ["y1", "y2"]
        assert [[layer["shape"] for layer in c["layers"]] for c in bundle["components"]] == [
            [[3, 2]], [[3, 2]]
        ]
        assert "true_function=linear" in (out / "task.spec").read_text()

    def test_report_task_block_is_the_saved_spec(self, tmp_path, capsys):
        out, rep = tmp_path / "s", tmp_path / "synth.json"
        argv = ["synth", "--seed", "4", "--n", "60", "--d", "3", "--noise", "0.03",
                "--qualities", "0.15,0.3", "--out", str(out), "--report", str(rep)]
        assert main(argv) == 0
        spec = dataclasses.asdict(cn.load_task_spec(out / "task.spec"))
        assert json.loads(rep.read_text())["task"] == json.loads(json.dumps(spec))
        assert spec["noise_sd"] == 0.03 and spec["component_quality"] == (0.15, 0.3)

    def test_byte_identical_datasets(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--seed", "7", "--n", "120", "--k", "3", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "7", "--n", "120", "--k", "3", "--out", str(b)]) == 0
        assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
        assert (a / "components.json").read_bytes() == (b / "components.json").read_bytes()
        assert (a / "task.spec").read_bytes() == (b / "task.spec").read_bytes()


class TestSolveLinear:
    def test_prints_theta_and_assumptions(self, tmp_path, capsys):
        p = tmp_path / "comps.csv"
        p.write_text("f1,f2,y\n1,0,1\n0,1,2\n0,0,0\n0,0,0\n")
        assert main(["solve-linear", "--data", str(p)]) == 0
        out = capsys.readouterr().out
        assert "theta*" in out
        assert "+1.0000000000" in out and "+2.0000000000" in out
        assert "A1 holds=True" in out

    @pytest.mark.parametrize(
        "text, where",
        [
            ("f1,f2,y\n1,0,1\n0,abc,2\n", "line 3"),
            ("f1,f2,y\n1,0,1\n0,1,2\nnan,0,0\n", "rows: [4]"),
            ("f1,f2,y\n1,0,1\n0,1\n", "line 3"),
            ("f1,f2,y\n1,0,1\n0,1,2,5\n", "line 3"),
            ("", "empty file"),
            ("f1,f2\n1,0\n", "missing columns: y"),
            ("f1,f1,y\n1,0,1\n0,1,2\n0,0,0\n0,0,0\n", "duplicate header columns: f1"),
        ],
        ids=[
            "bad-cell", "nan-cell", "short-row", "long-row", "empty-file", "no-y",
            "duplicate-header",
        ],
    )
    def test_malformed_input_names_file_and_line(self, tmp_path, capsys, text, where):
        p = tmp_path / "comps.csv"
        p.write_text(text)
        assert main(["solve-linear", "--data", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}: " in err and where in err


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    code = main(
        ["synth", "--seed", "3", "--n", "140", "--k", "3", "--d", "5",
         "--noise", "0.02", "--out", str(out)]
    )
    assert code == 0
    return out


class TestCompose:
    def test_report_front_runner_rows(self, bundle, tmp_path, capsys):
        rep = tmp_path / "dbcn.json"
        code = main(
            ["compose", "dbcn", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--delta", "0", "--seed", "1",
             "--epochs", "40", "--patience", "10", "--report", str(rep)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["algorithm"] == "dbcn"
        for step in payload["steps"]:
            best = min(c["train_loss"] for c in step["candidates"])
            front = [c for c in step["candidates"] if c["description"] == step["front_runner"]]
            assert front and front[0]["train_loss"] == best
        manifest = json.loads((tmp_path / "dbcn.json.manifest.json").read_text())
        assert manifest["subcommand"] == "compose"
        assert str(bundle / "data.csv") in manifest["inputs"]

    def test_manifest_replay_reproduces_numerics(self, bundle, tmp_path):
        rep1 = tmp_path / "r1.json"
        code = main(
            ["compose", "dbcn", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--seed", "5",
             "--epochs", "30", "--patience", "10", "--report", str(rep1)]
        )
        assert code == 0
        rep2 = tmp_path / "r2.json"
        assert replay_manifest(str(rep1) + ".manifest.json", rep2) == 0
        assert rep1.read_bytes() == rep2.read_bytes()

    def test_unknown_schedule_is_usage_error(self, bundle, capsys):
        code = main(
            ["compose", "exhaustive", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--schedule", "foo"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--schedule" in err and "foo" in err

    @pytest.mark.parametrize(
        "mode, k0, message",
        [
            ("exhaustive", "9", "k0 = 9 exceeds pool size 3"),
            ("exhaustive", "0", "k0 = 0 is below 1"),
            ("exhaustive", "-5", "k0 = -5 is below 1"),
            ("bbcn", "9", "k0 = 9 exceeds pool size 3"),
            ("bbcn", "0", "k0 = 0 is below 1"),
            ("bbcn", "-5", "k0 = -5 is below 1"),
        ],
        ids=["above-pool", "zero", "negative", "bbcn-above-pool", "bbcn-zero", "bbcn-negative"],
    )
    def test_exhaustive_k0_outside_pool_is_runtime_error(self, bundle, capsys, mode, k0, message):
        """bbcn and exhaustive share one k0 rule, 1 <= k0 <= pool size."""
        code = main(
            ["compose", mode, "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--k0", k0]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--activations", "linear,L"], "activations: label 'L' is repeated"),
            (["--activations", "sl,scaled-logistic:100:10"], "activations: label 'SL' is repeated"),
            (["--patience", "-3"], "0 turns early stopping off"),
            (
                ["--activations", "scaled-logistic:x:1"],
                "ActivationError: cannot parse activation token 'scaled-logistic:x:1'",
            ),
            # tanh candidates train, and a batch beyond the 112 train rows fails each
            (["--activations", "tanh", "--batch", "500"], "batch_size 500 exceeds 112 training rows"),
        ],
        ids=["same-activation", "same-label", "negative-patience", "unparseable-activation",
             "batch-above-train-rows"],
    )
    def test_bad_training_setting_is_runtime_error(self, bundle, capsys, flags, message):
        code = main(
            ["compose", "dbcn", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), *flags]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_benchmark_command_shapes(self, tmp_path, capsys):
        """The compose commands the benchmark sends run, and --schedule
        chain is the k0 = 1 tree: its report equals --k0 1's."""
        out = tmp_path / "b"
        assert main(["synth", "--seed", "4", "--n", "120", "--k", "5", "--out", str(out)]) == 0
        reports = {}
        for name, extra in {
            "chain": ["exhaustive", "--schedule", "chain"],
            "balanced": ["exhaustive", "--schedule", "balanced"],
            "k0-1": ["exhaustive", "--k0", "1"],
            "bbcn": ["bbcn", "--k0", "4"],
        }.items():
            rep = tmp_path / f"{name}.json"
            code = main(
                ["compose", *extra, "--pool", str(out / "components.json"),
                 "--data", str(out / "data.csv"), "--activations", "linear,sl",
                 "--epochs", "4", "--patience", "2", "--report", str(rep)]
            )
            assert code == 0, name
            reports[name] = json.loads(rep.read_text())
        chain, k0_one = reports["chain"], reports["k0-1"]
        assert chain.keys() == k0_one.keys()
        for key in chain:
            assert chain[key] == k0_one[key], key
        assert len(chain["steps"]) == 4

        # the impute command, on a grid with empty cells
        rng = np.random.default_rng(4)
        grid = rng.normal(size=(12, 12))
        grid[rng.random(grid.shape) < 0.3] = np.nan
        g, filled, rep = tmp_path / "g.csv", tmp_path / "G.csv", tmp_path / "G.json"
        g.write_text(
            "".join(",".join("" if np.isnan(v) else repr(v) for v in row) + "\n" for row in grid.tolist())
        )
        argv = ["impute", "--grid", str(g), "--k", "4", "--out", str(filled), "--report", str(rep)]
        assert main(argv) == 0
        report_grid = np.array(json.loads(rep.read_text())["grid"])
        np.testing.assert_array_equal(report_grid, cn.load_grid_csv(filled))
        known = np.isfinite(grid)
        np.testing.assert_array_equal(report_grid[known], grid[known])
        assert np.isfinite(report_grid).all()

    @pytest.mark.parametrize(
        "mode, flag, message",
        [
            ("exhaustive", "--lr", "learning_rate must be finite"),
            ("dbcn", "--delta", "delta must not be nan"),
        ],
        ids=["lr", "delta"],
    )
    def test_nan_setting_is_runtime_error(self, bundle, capsys, mode, flag, message):
        code = main(
            ["compose", mode, "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), flag, "nan"]
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dbcn", "bbcn"])
    def test_schedule_outside_exhaustive_is_usage_error(self, bundle, capsys, mode):
        code = main(
            ["compose", mode, "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--schedule", "chain"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--schedule" in err and mode in err

    def test_bbcn_validation_selection_front_runners(self, bundle, tmp_path, capsys):
        rep = tmp_path / "bbcn.json"
        code = main(
            ["compose", "bbcn", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--k0", "3", "--selection", "validation",
             "--seed", "2", "--epochs", "20", "--patience", "5", "--report", str(rep)]
        )
        assert code == 0
        payload = json.loads(rep.read_text())
        assert payload["algorithm"] == "bbcn"
        assert payload["selection_metric"] == "validation_loss"
        for step in payload["steps"]:
            best = min(step["candidates"], key=lambda c: c["test_loss"])
            assert step["front_runner"] == best["description"]
        manifest = json.loads((tmp_path / "bbcn.json.manifest.json").read_text())
        assert manifest["config"]["k0"] == 3 and manifest["config"]["schedule"] is None

    def test_duplicate_component_id_is_runtime_error(self, bundle, tmp_path, capsys):
        pool = json.loads((bundle / "components.json").read_text())
        pool["components"][1]["id"] = pool["components"][0]["id"]
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps(pool))
        code = main(["compose", "dbcn", "--pool", str(dup), "--data", str(bundle / "data.csv")])
        assert code == 2
        assert "duplicate component id 'f1'" in capsys.readouterr().err

    def test_wrong_output_width_is_runtime_error(self, bundle, tmp_path, capsys):
        pool = json.loads((bundle / "components.json").read_text())
        wide = cn.Component.mlp("w2", [5, 2], np.random.default_rng(0))
        pool["components"].append(wide.to_dict())
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(pool))
        code = main(["compose", "dbcn", "--pool", str(path), "--data", str(bundle / "data.csv")])
        assert code == 2
        assert "component 'w2' outputs 2 columns; the labels have 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dbcn", "bbcn", "exhaustive"])
    def test_data_without_train_rows_is_runtime_error(self, bundle, tmp_path, capsys, mode):
        header, *rows = (bundle / "data.csv").read_text().splitlines()
        assert header.endswith(",split")
        rows = [row.rsplit(",", 1)[0] + ",test" for row in rows]
        path = tmp_path / "test-only.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        pool = str(bundle / "components.json")
        assert main(["compose", mode, "--pool", pool, "--data", str(path)]) == 2
        assert "ConstructionError: the data has no train rows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["dbcn", "bbcn", "exhaustive"])
    def test_validation_selection_without_test_rows_is_rejected_before_fitting(
        self, bundle, tmp_path, capsys, monkeypatch, mode
    ):
        header, *rows = (bundle / "data.csv").read_text().splitlines()
        assert header.endswith(",split")
        rows = [row.rsplit(",", 1)[0] for row in rows]  # no split column: every row trains
        path = tmp_path / "no-split.csv"
        path.write_text("\n".join([header.rsplit(",", 1)[0], *rows]) + "\n")

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated or fitted before the data was checked")

        monkeypatch.setattr("compnet.construct._component_state", refuse)
        monkeypatch.setattr("compnet.construct._fit", refuse)
        pool = str(bundle / "components.json")
        argv = ["compose", mode, "--pool", pool, "--data", str(path), "--selection", "validation"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (
            "ConstructionError: selection metric 'validation_loss' is undefined "
            "(empty test split?)" in err
        )

    @pytest.mark.parametrize(
        "field, value", [("weights", None), ("weights", float("nan")), ("bias", "x")],
        ids=["null-weight", "nan-weight", "string-bias"],
    )
    def test_non_numeric_weights_are_named_before_evaluation(
        self, bundle, tmp_path, capsys, monkeypatch, field, value
    ):
        pool = json.loads((bundle / "components.json").read_text())
        pool["components"][1]["layers"][0][field][0] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(pool))

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated or fitted a malformed pool")

        monkeypatch.setattr("compnet.construct._component_state", refuse)
        monkeypatch.setattr("compnet.construct._fit", refuse)
        argv = ["compose", "dbcn", "--pool", str(path), "--data", str(bundle / "data.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"ModelError: component 'f2': layers[0].{field} must hold finite numbers" in err

    def test_bbcn_non_base_head_is_rejected_before_evaluation(
        self, bundle, tmp_path, capsys, monkeypatch
    ):
        """The first k0 entries' roles follow from kind and role alone, so
        an auxiliary component among them is rejected before any loss."""
        pool = json.loads((bundle / "components.json").read_text())
        pool["components"][0]["role"] = "auxiliary"
        path = tmp_path / "aux.json"
        path.write_text(json.dumps(pool))

        def refuse(*args, **kwargs):
            raise AssertionError("evaluated or fitted before the pool was checked")

        monkeypatch.setattr("compnet.construct._component_state", refuse)
        monkeypatch.setattr("compnet.construct._fit", refuse)
        argv = ["compose", "bbcn", "--k0", "3", "--pool", str(path), "--data", str(bundle / "data.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "ConstructionError: first k0 pool entries must be base components" in err

    def test_exhaustive_manifest_replays_bit_exactly(self, bundle, tmp_path):
        """Opened candidates are solved, rank-deficient ones included, and
        the solve is deterministic."""
        rep1 = tmp_path / "x1.json"
        code = main(
            ["compose", "exhaustive", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--k0", "1", "--report", str(rep1)]
        )
        assert code == 0
        assert any("rank-deficient" in n for n in json.loads(rep1.read_text())["notes"])
        rep2 = tmp_path / "x2.json"
        assert replay_manifest(str(rep1) + ".manifest.json", rep2) == 0
        assert rep1.read_bytes() == rep2.read_bytes()

    def test_diverging_candidates_are_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "b7"
        assert main(["synth", "--seed", "7", "--out", str(out)]) == 0
        rep = tmp_path / "div.json"
        # relu candidates train, and at this rate they diverge (tanh would saturate)
        code = main(
            ["compose", "exhaustive", "--pool", str(out / "components.json"),
             "--data", str(out / "data.csv"), "--activations", "linear,relu",
             "--lr", "1e30", "--epochs", "20", "--patience", "5", "--report", str(rep)]
        )
        assert code == 0
        notes = json.loads(rep.read_text())["notes"]
        diverged = [n for n in notes if "failed training: diverged" in n]
        assert any("non-finite gradient" in n for n in diverged)

    @pytest.mark.parametrize(
        "mode, trains", [("dbcn", False), ("exhaustive", True), ("exhaustive", False)]
    )
    def test_note_when_training_settings_unread(self, bundle, tmp_path, mode, trains):
        """With linear,sl over a pre-trained pool, every dbcn merge and every
        exhaustive one, opened variants included, is solved in closed form;
        with linear,tanh exhaustive trains its tanh variants."""
        rep = tmp_path / f"{mode}.json"
        code = main(
            ["compose", mode, "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"),
             "--activations", "linear,tanh" if trains else "linear,sl",
             "--epochs", "5", "--report", str(rep)]
        )
        assert code == 0
        notes = json.loads(rep.read_text())["notes"]
        unread = [n for n in notes if "training settings" in n and "not read" in n]
        assert len(unread) == (0 if trains else 1)

    def test_history_csv_per_candidate(self, bundle, tmp_path):
        rep, hist = tmp_path / "ex.json", tmp_path / "hist"
        code = main(
            ["compose", "exhaustive", "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--seed", "3", "--epochs", "15",
             "--patience", "5", "--history", str(hist), "--report", str(rep)]
        )
        assert code == 0
        steps = json.loads(rep.read_text())["steps"]
        expected = {
            f"step{j}-cand{i}.csv": cand["train_loss"]
            for j, step in enumerate(steps, start=1)
            for i, cand in enumerate(step["candidates"], start=1)
        }
        assert sorted(p.name for p in hist.iterdir()) == sorted(expected)
        for name, train_loss in expected.items():
            lines = (hist / name).read_text().splitlines()
            assert lines[0] == "epoch,train_loss,test_loss"
            # the reported loss is the returned row's, and no row beats it
            rows = [float(line.split(",")[1]) for line in lines[1:]]
            assert train_loss in rows
            assert min(rows) >= train_loss - 1e-12


class TestNonFiniteSettings:
    """A NaN or infinite setting exits 2 with a message that names it, before
    any pool is evaluated or any file is written."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("did work with a non-finite setting")

        for target in (
            "compnet.cli.generate_synthetic",
            "compnet.cli.build_gram",
            "compnet.bounds._run_trials",
            "compnet.construct._component_state",
            "compnet.construct._fit",
        ):
            monkeypatch.setattr(target, refuse)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "command, message",
        [
            (["synth", "--qualities", "{},0.1"],
             "DataError: component_quality entries must be finite and non-negative"),
            (["verify", "theorem1", "--noise", "{}"],
             "ValueError: component_noise must be finite and positive"),
            (["verify", "scaled-activation", "--noise", "{}"],
             "ValueError: component_noise must be finite and positive"),
            (["compose", "dbcn", "--activations", "linear,scaled-logistic:{}:1"],
             "ActivationError: scaled-logistic needs finite positive scale and range"),
            (["compose", "dbcn", "--activations", "linear,scaled-logistic:1:{}"],
             "ActivationError: scaled-logistic needs finite positive scale and range"),
        ],
        ids=["synth-qualities", "theorem1-noise", "scaled-activation-noise", "sl-scale",
             "sl-range"],
    )
    def test_setting_is_named_before_any_work(
        self, bundle, tmp_path, capsys, command, message, value
    ):
        out, rep = tmp_path / "out", tmp_path / "r.json"
        argv = [token.format(value) for token in command] + ["--report", str(rep)]
        if command[0] == "synth":
            argv += ["--out", str(out)]
        if command[0] == "compose":
            argv += ["--pool", str(bundle / "components.json"), "--data", str(bundle / "data.csv")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("key", ["scale", "range"])
    def test_pool_activation_is_named_before_evaluation(self, bundle, tmp_path, capsys, key):
        pool = json.loads((bundle / "components.json").read_text())
        activation = {"tag": "scaled-logistic", "scale": 1.0, "range": 1.0, key: math.nan}
        pool["components"][0]["layers"][-1]["activation"] = activation
        path, rep = tmp_path / "bad.json", tmp_path / "r.json"
        path.write_text(json.dumps(pool))
        argv = ["compose", "dbcn", "--pool", str(path), "--data", str(bundle / "data.csv"),
                "--report", str(rep)]
        assert main(argv) == 2
        assert "scaled-logistic needs finite positive scale and range" in capsys.readouterr().err
        assert not rep.exists()


class TestVerifyCli:
    def test_theorem1_prints_rate_and_bound(self, capsys, tmp_path):
        rep = tmp_path / "v.json"
        code = main(
            ["verify", "theorem1", "--n", "400", "--k", "3", "--trials", "200",
             "--seed", "2", "--report", str(rep)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bound 0.8000" in out
        payload = json.loads(rep.read_text())
        assert payload["bound"] == pytest.approx(0.8)
        assert payload["empirical_rate"] >= 0.8

    def test_repeat_run_bit_exact(self, tmp_path):
        args = ["verify", "prop1", "--n", "100", "--k", "2", "--trials", "150", "--seed", "4"]
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--report", str(r1)]) == 0
        assert main(args + ["--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_scaled_activation_check(self, capsys, tmp_path):
        code = main(
            ["verify", "scaled-activation", "--activation", "logistic",
             "--epsilon", "0.05", "--seed", "3", "--n", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out


    @pytest.mark.parametrize(
        "claim, flags",
        [
            ("theorem2", ["--n", "400", "--k", "3", "--h", "2", "--trials", "150"]),
            ("orthogonality", ["--n", "10000", "--trials", "2000"]),
        ],
    )
    def test_claim_satisfied(self, capsys, tmp_path, claim, flags):
        rep = tmp_path / "v.json"
        assert main(["verify", claim, *flags, "--seed", "1", "--report", str(rep)]) == 0
        assert "SATISFIED" in capsys.readouterr().out
        assert json.loads(rep.read_text())["satisfied"] is True


class TestParseActivation:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("tanh", cn.TANH),
            ("relu", cn.RELU),
            ("scaled-logistic:3:2", cn.Activation("scaled-logistic", scale=3.0, out_range=2.0)),
        ],
    )
    def test_tokens(self, token, expected):
        assert cn.parse_activation(token) == expected

    @pytest.mark.parametrize("token", ["scaled-logistic:3", "softplus"])
    def test_bad_token_rejected(self, token):
        with pytest.raises(ValueError, match="cannot parse"):
            cn.parse_activation(token)

    @pytest.mark.parametrize(
        "token", ["scaled-logistic:nan:1", "scaled-logistic:1:nan", "scaled-logistic:inf:inf"]
    )
    def test_non_finite_scaled_logistic_rejected(self, token):
        with pytest.raises(ActivationError, match="finite positive scale and range"):
            cn.parse_activation(token)
        scale, out_range = (float(v) for v in token.split(":")[1:])
        with pytest.raises(ActivationError, match="finite positive scale and range"):
            cn.Activation.from_dict({"tag": "scaled-logistic", "scale": scale, "range": out_range})


class TestImpute:
    def test_grid_file_roundtrip(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        g.write_text("1.0,,3.0\n,2.0,\n4.0,,5.0\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--grid", str(g), "--k", "2", "--out", str(out)]) == 0
        from compnet import load_grid_csv

        filled = load_grid_csv(out)
        assert np.all(np.isfinite(filled))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_is_runtime_error(self, tmp_path, capsys, cell):
        """Only an empty cell marks a missing value."""
        g = tmp_path / "g.csv"
        g.write_text(f"1,2,3\n4,{cell},6\n7,,9\n")
        assert main(["impute", "--grid", str(g), "--k", "2"]) == 2
        assert f"line 2: non-finite cell '{cell}'" in capsys.readouterr().err

    def test_overflowing_mean_is_runtime_error(self, tmp_path, capsys):
        g, out, rep = tmp_path / "g.csv", tmp_path / "filled.csv", tmp_path / "imp.json"
        g.write_text("1e308,1e308\n1e308,\n")
        argv = ["impute", "--grid", str(g), "--k", "3", "--out", str(out), "--report", str(rep)]
        assert main(argv) == 2
        assert "overflows at (1, 1)" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()


class TestImputeOutput:
    @pytest.mark.parametrize("files", [["--out"], ["--report"], ["--out", "--report"]])
    def test_grid_not_printed_when_a_file_holds_it(self, tmp_path, capsys, files):
        paths = {flag: tmp_path / f"imp-{flag[2:]}" for flag in files}
        argv = ["impute", "--demo", "--k", "2"]
        for flag, path in paths.items():
            argv += [flag, str(path)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ("--out" in files) == (lines[0] == f"wrote {paths.get('--out')}")
        assert "filled 8 missing cells with k=2" in lines
        assert len(lines) == len(files) + 1

    def test_grid_printed_when_no_file_holds_it(self, capsys):
        assert main(["impute", "--demo", "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1] == "filled 8 missing cells with k=2"
        assert lines[0].split() == ["12.000", "13.000", "14.000", "15.000", "16.000"]


class TestWriteReport:
    def test_reports_and_manifests_are_one_line(self, bundle, tmp_path, capsys):
        runs = {
            "synth": ["synth", "--seed", "2", "--n", "60", "--out", str(tmp_path / "s")],
            "compose": ["compose", "dbcn", "--pool", str(bundle / "components.json"),
                        "--data", str(bundle / "data.csv")],
            "verify": ["verify", "prop1", "--n", "100", "--k", "2", "--trials", "120"],
            "impute": ["impute", "--demo", "--k", "2"],
        }
        files = [tmp_path / "s" / "components.json"]
        for name, argv in runs.items():
            rep = tmp_path / f"{name}.json"
            assert main(argv + ["--report", str(rep)]) == 0, name
            files += [rep, tmp_path / f"{name}.json.manifest.json"]
        for path in files:
            text = path.read_text(encoding="utf-8")
            assert text.endswith("\n") and text.count("\n") == 1, path.name
            json.loads(text)

    def test_payload_round_trips(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(
            {"b": [np.float64(0.1), np.int64(3)], "a": {"grid": np.eye(2), "ok": True, "n": None}},
            path,
        )
        text = path.read_text(encoding="utf-8")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {
            "a": {"grid": [[1.0, 0.0], [0.0, 1.0]], "ok": True, "n": None},
            "b": [0.1, 3],
        }

    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20))
    @example(values=[5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e308, -1e308])
    @example(values=[float("nan"), float("inf"), float("-inf"), 0.1, 1 / 3])
    @settings(max_examples=60, deadline=None)
    def test_floats_round_trip_bit_for_bit(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("floats") / "r.json"
        write_report({"values": values, "array": np.array(values)}, path)
        back = json.loads(path.read_text(encoding="utf-8"))
        for got in (back["values"], back["array"]):
            assert len(got) == len(values)
            for want, have in zip(values, got):
                if math.isnan(want):
                    assert math.isnan(have)
                else:
                    assert struct.pack("<d", have) == struct.pack("<d", want)


class TestReportDirEnv:
    def test_env_var_default_report_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COMPNET_REPORT_DIR", str(tmp_path / "reports"))
        assert main(["verify", "prop1", "--n", "100", "--k", "2", "--trials", "120"]) == 0
        assert (tmp_path / "reports" / "verify-report.json").exists()
