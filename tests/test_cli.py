import json
import math
import os
import subprocess
import sys

import pytest

from circledyn.cli import main

TAU = 2 * math.pi


@pytest.fixture
def arnold_file(tmp_path):
    path = tmp_path / "arnold.json"
    path.write_text(json.dumps({
        "label": "arnold-0.1",
        "winding": 1,
        "harmonics": [{"j": 1, "a": [0.0], "b": [0.1]}],
    }))
    return str(path)


@pytest.fixture
def unit_profile_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({
        "label": "sine-profile",
        "winding": 1,
        "harmonics": [{"j": 1, "a": [0.0], "b": [1.0]}],
    }))
    return str(path)


@pytest.fixture
def skew_file(tmp_path):
    amp = 0.05 / TAU ** 3
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({
        "label": "arnold-fiber",
        "m": 2,
        "harmonics": [{"jx": 0, "jy": 1, "a": [0.0], "b": [amp]}],
    }))
    return str(path)


def read(path):
    with open(path) as fh:
        return fh.read()


class TestRho:
    def test_csv_rows(self, arnold_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["rho", "--input", arnold_file, "--t", "0.05,0.25",
                     "--out", out, "--qmax", "10", "--workers", "1"]) == 0
        lines = read(os.path.join(out, "rho.csv")).strip().splitlines()
        assert lines[0] == "t,rho,error_bound,classification,p,q"
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[3] == "locked" and (row[4], row[5]) == ("0", "1")
        assert os.path.exists(os.path.join(out, "run_config.json"))
        assert os.path.exists(os.path.join(out, "report.json"))

    def test_t_range(self, arnold_file, tmp_path):
        out = str(tmp_path / "o")
        assert main(["rho", "--input", arnold_file, "--t-range", "0:0.9:4",
                     "--out", out, "--workers", "1", "--niter", "2000"]) == 0
        assert len(read(os.path.join(out, "rho.csv")).strip().splitlines()) == 5


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert main(["rho", "--input", str(tmp_path / "nope.json"),
                     "--t", "0.1", "--out", str(tmp_path / "x")]) == 2

    def test_parse_error_names_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"label": "x", ')
        assert main(["rho", "--input", str(bad), "--t", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and str(bad) in err

    def test_degenerate_family_exit_3(self, unit_profile_file, tmp_path):
        # amplitude beyond 1/(2 pi): not a diffeomorphism
        assert main(["tongues", "--input", unit_profile_file, "--deltas", "0.2",
                     "--qmax", "2", "--out", str(tmp_path / "x"),
                     "--workers", "1"]) == 3

    def test_hypothesis_violation_exit_4(self, tmp_path):
        fat = tmp_path / "fat.json"
        fat.write_text(json.dumps({
            "label": "fat", "m": 2,
            "harmonics": [{"jx": 0, "jy": 1, "a": [0.0], "b": [0.05]}],
        }))
        assert main(["theoremA", "--input", str(fat), "--nmax", "2",
                     "--samples", "10", "--out", str(tmp_path / "x"),
                     "--workers", "1"]) == 4

    def test_missing_required_flag(self, arnold_file, tmp_path):
        assert main(["rho", "--input", arnold_file,
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["windows", "--input", "{family}", "--qmax", "0"],
        ["rho", "--input", "{family}", "--t", "0.1", "--niter", "-5"],
        ["rho", "--input", "{family}", "--t", "0.1", "--qmax", "-3"],
        ["skew", "--input", "{skew}", "--t", "0.1", "--R", "0"],
        ["theoremA", "--input", "{skew}", "--nmax", "0"],
        ["rho", "--input", "{family}", "--t", "0.1", "--config", "{conf}"],
        ["tongues", "--input", "{family}", "--deltas", "0:1"],
        ["windows", "--input", "{family}", "--qmax", "2", "--seed", "-1"],
    ], ids=["windows-qmax-0", "rho-niter-neg", "rho-qmax-neg", "skew-R-0",
            "theoremA-nmax-0", "config-qmax-abc", "tongues-deltas-0:1", "windows-seed-neg"])
    def test_bad_option_exit_2(self, argv, arnold_file, skew_file, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"qmax": "abc"}))
        out = tmp_path / "outdir"
        argv = [a.format(family=arnold_file, skew=skew_file, conf=conf) for a in argv]
        assert main(argv + ["--out", str(out), "--workers", "1"]) == 2
        assert not out.exists() or not any(out.iterdir())
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd,text", [
        ("rho", '{"harmonics": [{"j": "x", "b": [0.1]}]}'),
        ("rho", '{"harmonics": [{"j": 1.5, "b": [0.1]}]}'),
        ("rho", '{"harmonics": [{"j": true, "b": [0.1]}]}'),
        ("rho", '[{"j": 1, "b": [0.1]}]'),
        ("rho", '{"harmonics": {"j": 1, "b": [0.1]}}'),
        ("rho", '{"harmonics": [1]}'),
        ("rho", '{"harmonics": [{"j": 1, "a": [NaN], "b": [0.1]}]}'),
        ("rho", '{"const": Infinity, "harmonics": [{"j": 1, "b": [0.1]}]}'),
        ("skew", '{"m": 2, "harmonics": [{"jx": 0, "jy": 1, "b": [NaN]}]}'),
        ("skew", '{"m": 2, "harmonics": [{"jx": "0", "jy": 1, "b": [0.001]}]}'),
        ("skew", '{"m": 2, "harmonics": [{"jx": 0, "jy": 1.5, "b": [0.001]}]}'),
        ("rho", "[" * 100_000 + "]" * 100_000),
    ], ids=["j-str", "j-float", "j-bool", "top-list", "harmonics-object", "harmonic-int",
            "coeff-nan", "const-inf", "skew-coeff-nan", "skew-jx-str", "skew-jy-float", "nested-too-deep"])
    def test_bad_definition_file_exit_2(self, cmd, text, tmp_path, capsys):
        path = tmp_path / "def.json"
        path.write_text(text)
        out = tmp_path / "outdir"
        assert main([cmd, "--input", str(path), "--t", "0.1", "--out", str(out),
                     "--workers", "1"]) == 2
        assert not out.exists() or not any(out.iterdir())
        err = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert err and str(path) in err[0]

    def test_no_partial_files_on_failure(self, unit_profile_file, tmp_path):
        out = tmp_path / "outdir"
        main(["tongues", "--input", unit_profile_file, "--deltas", "0.01,0.2",
              "--qmax", "2", "--out", str(out), "--workers", "1"])
        assert not (out / "tongues.csv").exists()


class TestPrecedence:
    def test_env_overrides_default(self, arnold_file, tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        monkeypatch.setenv("CIRCLEDYN_QMAX", "3")
        assert main(["rho", "--input", arnold_file, "--t", "0.05",
                     "--out", out, "--workers", "1"]) == 0
        cfg = json.loads(read(os.path.join(out, "run_config.json")))
        assert cfg["qmax"] == 3

    def test_flag_overrides_env(self, arnold_file, tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        monkeypatch.setenv("CIRCLEDYN_QMAX", "3")
        assert main(["rho", "--input", arnold_file, "--t", "0.05",
                     "--out", out, "--qmax", "7", "--workers", "1"]) == 0
        cfg = json.loads(read(os.path.join(out, "run_config.json")))
        assert cfg["qmax"] == 7

    def test_config_file_layered_under_env_and_flags(self, arnold_file, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"qmax": 5, "seed": 77}))
        out = str(tmp_path / "o")
        assert main(["rho", "--input", arnold_file, "--t", "0.05",
                     "--out", out, "--config", str(conf), "--workers", "1"]) == 0
        cfg = json.loads(read(os.path.join(out, "run_config.json")))
        assert cfg["qmax"] == 5 and cfg["seed"] == 77


class TestWindowsCommand:
    def test_outputs(self, arnold_file, tmp_path):
        out = str(tmp_path / "w")
        assert main(["windows", "--input", arnold_file, "--qmax", "2",
                     "--out", out, "--samples", "200", "--workers", "1"]) == 0
        lines = read(os.path.join(out, "windows.csv")).strip().splitlines()
        assert lines[0] == "p,q,t_lo,t_hi,width,bracket_radius"
        assert len(lines) == 3
        m = read(os.path.join(out, "measure.csv")).strip().splitlines()
        assert m[0] == "q_max,lower,mc,unresolved,seed"


class TestDioCommand:
    def test_csv(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["dio", "--C", "0.2,0.1", "--nmax", "100",
                     "--grid", "5000", "--out", out]) == 0
        lines = read(os.path.join(out, "dio.csv")).strip().splitlines()
        assert lines[0] == "C,n_max,estimate,analytic_lower,grid_error"
        assert len(lines) == 3


class TestSkewCommand:
    def test_outputs(self, skew_file, tmp_path):
        out = str(tmp_path / "s")
        assert main(["skew", "--input", skew_file, "--nmax", "2", "--R", "0.5",
                     "--t", "0.33,0.5", "--out", out, "--workers", "1",
                     "--niter", "2000"]) == 0
        circles = read(os.path.join(out, "circles.csv")).strip().splitlines()
        assert circles[0] == "k,n,x0_num,x0_den,sup_c3,passes"
        assert len(circles) == 4  # circles 0, 1/3, 2/3
        search = read(os.path.join(out, "search.csv")).strip().splitlines()
        assert search[0] == "t,found,k,n,rho,classification"
        assert len(search) == 3


class TestDeterminism:
    def test_serial_rerun_byte_identical(self, arnold_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["windows", "--input", arnold_file, "--qmax", "3",
                         "--out", out, "--samples", "150", "--seed", "5",
                         "--workers", "1"]) == 0
            outs.append(out)
        for fname in ("windows.csv", "measure.csv"):
            a = read(os.path.join(outs[0], fname))
            b = read(os.path.join(outs[1], fname))
            assert a == b, fname
        # the config dump differs only in the output path itself
        ca = json.loads(read(os.path.join(outs[0], "run_config.json")))
        cb = json.loads(read(os.path.join(outs[1], "run_config.json")))
        ca.pop("out"), cb.pop("out")
        assert ca == cb

    def test_parallel_matches_serial(self, arnold_file, tmp_path):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "p2")
        args = ["windows", "--input", arnold_file, "--qmax", "4",
                "--samples", "100", "--seed", "9"]
        assert main(args + ["--out", out1, "--workers", "1"]) == 0
        assert main(args + ["--out", out2, "--workers", "3"]) == 0
        for fname in ("windows.csv", "measure.csv"):
            assert read(os.path.join(out1, fname)) == read(os.path.join(out2, fname))


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "circledyn.cli", "--version"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "circledyn" in res.stdout
