"""CLI: exit codes, determinism, report/manifest plumbing."""

import json

import numpy as np
import pytest

from compnet.cli import build_parser, main, replay_manifest


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

    def test_success_is_0(self, capsys, tmp_path):
        assert main(["impute", "--demo", "--k", "2"]) == 0


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


class TestSynth:
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

    @pytest.mark.parametrize("mode", ["dbcn", "bbcn"])
    def test_schedule_outside_exhaustive_is_usage_error(self, bundle, capsys, mode):
        code = main(
            ["compose", mode, "--pool", str(bundle / "components.json"),
             "--data", str(bundle / "data.csv"), "--schedule", "chain"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "--schedule" in err and mode in err

    def test_diverging_candidates_are_recorded_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "b7"
        assert main(["synth", "--seed", "7", "--out", str(out)]) == 0
        rep = tmp_path / "div.json"
        code = main(
            ["compose", "dbcn", "--pool", str(out / "components.json"),
             "--data", str(out / "data.csv"), "--lr", "1e30", "--epochs", "20",
             "--patience", "5", "--report", str(rep)]
        )
        assert code == 0
        notes = json.loads(rep.read_text())["notes"]
        diverged = [n for n in notes if "failed training: diverged" in n]
        assert any("non-finite gradient" in n for n in diverged)

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
            assert float(lines[-1].split(",")[1]) == train_loss


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


class TestImpute:
    def test_grid_file_roundtrip(self, tmp_path, capsys):
        g = tmp_path / "g.csv"
        g.write_text("1.0,,3.0\n,2.0,\n4.0,,5.0\n")
        out = tmp_path / "filled.csv"
        assert main(["impute", "--grid", str(g), "--k", "2", "--out", str(out)]) == 0
        from compnet import load_grid_csv

        filled = load_grid_csv(out)
        assert np.all(np.isfinite(filled))


class TestReportDirEnv:
    def test_env_var_default_report_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COMPNET_REPORT_DIR", str(tmp_path / "reports"))
        assert main(["verify", "prop1", "--n", "100", "--k", "2", "--trials", "120"]) == 0
        assert (tmp_path / "reports" / "verify-report.json").exists()
