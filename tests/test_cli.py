import argparse
import concurrent.futures
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from circledyn import cli, diophantine, skew
from circledyn import io as cio
from circledyn.cli import main
from circledyn.diophantine import MAX_N_MAX

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


def serial(argv):
    """``argv`` with ``--workers 1`` for the subcommands that take it."""
    return argv if argv[0] == "dio" else argv + ["--workers", "1"]


def read(path):
    with open(path) as fh:
        return fh.read()


def pool_starts(monkeypatch):
    """The worker counts of the process pools started from now on."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


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

    def test_overflowing_orbit_is_unresolved(self, arnold_file, tmp_path):
        out = str(tmp_path / "o")
        assert main(["rho", "--input", arnold_file, "--t", "1e308", "--out", out,
                     "--qmax", "3", "--workers", "1"]) == 0
        row = read(os.path.join(out, "rho.csv")).strip().splitlines()[1].split(",")
        assert row[3] == "unresolved"

    @pytest.mark.parametrize("cmd", ["rho", "skew"])
    def test_overflow_warns_nothing(self, cmd, skew_file, tmp_path):
        # coefficients in t overflow at these t, and so do the orbits; both
        # end as unresolved (rho) or not found (skew), with a quiet stderr
        fam = tmp_path / "poly.json"
        fam.write_text(json.dumps({
            "label": "poly", "winding": 1, "const": [0.0, 1.0, 2.0],
            "harmonics": [{"j": 1, "a": [0.0, 1e-3, 1e-3], "b": [0.1, 0.0, 1e-3]}],
        }))
        out = tmp_path / "o"
        res = subprocess.run(
            [sys.executable, "-W", "default", "-m", "circledyn.cli", cmd,
             "--input", str(fam) if cmd == "rho" else skew_file,
             "--t", "1e308,-1e200,1e160,-1.7976931348623157e308", "--qmax", "3",
             "--niter", "64", "--workers", "1", "--out", str(out)]
            + (["--nmax", "2"] if cmd == "skew" else []),
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr, res.stderr
        csv_name, col, status = (("rho.csv", 3, "unresolved") if cmd == "rho"
                                 else ("search.csv", 5, "none"))
        rows = read(out / csv_name).strip().splitlines()[1:]
        assert [r.split(",")[col] for r in rows] == [status] * 4

    def test_large_t_is_unresolved(self, arnold_file, tmp_path):
        # t = 1e20 is an integer, so f_t locks at 0/1, but an orbit of lift
        # values near n * 1e20 keeps no fractional bits to show it
        out = str(tmp_path / "o")
        assert main(["rho", "--input", arnold_file, "--t", "1e20,1e12,0.05", "--out", out,
                     "--qmax", "5", "--workers", "1"]) == 0
        rows = [r.split(",") for r in read(os.path.join(out, "rho.csv")).strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["unresolved", "unresolved", "locked"]

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

    @pytest.mark.parametrize("cmd", ["windows", "rho", "skew"])
    def test_non_finite_derivative_grid_exit_3(self, cmd, tmp_path, capsys):
        # 2 pi 1e308 overflows: the diffeomorphism scan sees nan, which must
        # fail it (warnings are errors here, so none may escape either)
        huge = {"a": [1e308], "b": [1e308]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"label": "huge", "m": 2, "harmonics": [{"jx": 0, "jy": 1, **huge}]} if cmd == "skew"
            else {"label": "huge", "winding": 1, "harmonics": [{"j": 1, **huge}]}))
        out = tmp_path / "o"
        argv = {"windows": ["--qmax", "2", "--samples", "10"], "rho": ["--t", "0.3"],
                "skew": ["--nmax", "2", "--t", "0.3"]}[cmd]
        assert main([cmd, "--input", str(path), "--out", str(out), "--workers", "1"]
                    + argv) == 3
        err = capsys.readouterr().err
        assert "derivative grid that is not finite" in err and "Warning" not in err
        assert not out.exists() or not any(out.glob("*.csv"))

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
        ["rho", "--input", "{family}", "--t", "0.1", "--qmax=--"],
        ["rho", "--input", "{family}", "--t", "0.1,nan"],
        ["rho", "--input", "{family}", "--t-range=-1e308:1e308:3"],
        ["dio", "--C", "0", "--nmax", "3"],
        ["dio", "--C", "0.1,2.5", "--nmax", "3"],
        ["windows", "--input", "{family}", "--qmax", "2", "--tol", "1e300"],
        ["windows", "--input", "{family}", "--qmax", "2", "--tol", "2"],
        ["windows", "--input", "{family}", "--qmax", "2", "--tol", "0.9"],
        ["windows", "--input", "{family}", "--qmax", "30", "--tol", "2.8e-4"],
        ["tongues", "--input", "{family}", "--qmax", "2", "--deltas", "0.1", "--tol", "0.0625"],
        ["tongues", "--input", "{family}", "--deltas", f"0:1:{10 ** 12}"],
    ], ids=["windows-qmax-0", "rho-niter-neg", "rho-qmax-neg", "skew-R-0",
            "theoremA-nmax-0", "config-qmax-abc", "tongues-deltas-0:1", "windows-seed-neg",
            "rho-qmax-dashdash", "rho-t-nan", "rho-t-range-overflow", "dio-C-0", "dio-C-above-2",
            "windows-tol-1e300", "windows-tol-2", "windows-tol-0.9", "windows-tol-over-qmax-30",
            "tongues-tol-at-bound", "tongues-deltas-above-cap"])
    def test_bad_option_exit_2(self, argv, arnold_file, skew_file, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"qmax": "abc"}))
        out = tmp_path / "outdir"
        argv = [a.format(family=arnold_file, skew=skew_file, conf=conf) for a in argv]
        assert main(serial(argv + ["--out", str(out)])) == 2
        assert not out.exists() or not any(out.iterdir())
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["windows", "--input", "{family}", "--grid", str(2 ** 24 + 1)], "--grid"),
        (["windows", "--input", "{family}", "--grid", str(10 ** 30)], "--grid"),
        (["tongues", "--input", "{family}", "--deltas", "0.1", "--grid", str(10 ** 30)],
         "--grid"),
        (["rho", "--input", "{family}", "--t", "0.45", "--qmax", "141"], "--qmax"),
        (["skew", "--input", "{skew}", "--t", "0.1", "--qmax", str(10 ** 30)], "--qmax"),
        (["theoremA", "--input", "{skew}", "--qmax", "200"], "--qmax"),
        (["windows", "--input", "{family}", "--qmax", str(10 ** 400)], "--qmax"),
    ], ids=["windows-grid-cap+1", "windows-grid-1e30", "tongues-grid-1e30", "rho-qmax-141",
            "skew-qmax-1e30", "theoremA-qmax-200", "windows-qmax-1e400"])
    def test_lock_grid_cap(self, argv, flag, arnold_file, skew_file, tmp_path, capsys,
                           monkeypatch):
        # rejected before any definition file is read, so nothing is allocated
        def unread(path):
            raise AssertionError(f"{path} read")

        monkeypatch.setattr(cio, "load_family", unread)
        monkeypatch.setattr(cio, "load_skew", unread)
        out = tmp_path / "outdir"
        argv = [a.format(family=arnold_file, skew=skew_file) for a in argv]
        assert main(argv + ["--out", str(out), "--workers", "1"]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nmax", [MAX_N_MAX + 1, 10 ** 12, 10 ** 400],
                             ids=["cap+1", "1e12", "1e400"])
    def test_dio_nmax_cap(self, nmax, tmp_path, capsys, monkeypatch):
        # rejected before any measure is taken
        def unmeasured(params):
            raise AssertionError(f"measured {params}")

        monkeypatch.setattr(diophantine, "dio_measure", unmeasured)
        out = tmp_path / "outdir"
        assert main(["dio", "--C", "0.1", "--nmax", str(nmax), "--out", str(out)]) == 2
        assert "--nmax" in capsys.readouterr().err
        assert not out.exists()

    def test_tol_bound(self, arnold_file, tmp_path, capsys):
        # windows of neighbouring rationals are seeded 1/(winding qmax^2)
        # apart; the bound is a quarter of that
        base = ["windows", "--input", arnold_file, "--qmax", "2", "--samples", "5",
                "--workers", "1"]
        assert main(base + ["--tol", "0.0625", "--out", str(tmp_path / "a")]) == 2
        assert "--tol" in capsys.readouterr().err
        assert main(base + ["--tol", "0.06", "--out", str(tmp_path / "b")]) == 0
        rows = read(tmp_path / "b" / "windows.csv").strip().splitlines()[1:]
        assert [tuple(r.split(",")[:2]) for r in rows] == [("0", "1"), ("1", "2")]

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
        ("rho", '{"harmonics": [{"j": 1000000000, "b": [1e-12]}]}'),
        ("rho", '{"harmonics": [{"j": 1025, "b": [0.1]}]}'),
        ("skew", '{"m": 2, "harmonics": [{"jx": 0, "jy": -1025, "b": [0.001]}]}'),
        ("rho", '{"harmonics": [{"j": 1, "b": [1e308]}, {"j": 1, "b": [1e308]}]}'),
        ("skew", '{"m": 2, "harmonics": [{"jx": 0, "jy": 1, "a": [0, -1e308]},'
                 ' {"jx": 0, "jy": 1, "a": [0, -1e308]}]}'),
    ], ids=["j-str", "j-float", "j-bool", "top-list", "harmonics-object", "harmonic-int",
            "coeff-nan", "const-inf", "skew-coeff-nan", "skew-jx-str", "skew-jy-float", "nested-too-deep",
            "j-huge", "j-over-cap", "skew-jy-below-cap", "j-sum-overflow", "skew-sum-overflow"])
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
        # the Monte Carlo work goes into the report, not into a CSV; the
        # samples inside certified windows run no orbit
        table = json.loads(read(os.path.join(out, "report.json")))["tables"]["mc_iterates"]
        assert table["header"] == ["samples", "iterates", "decided_by_windows"]
        samples, iterates, decided = (int(v) for v in table["rows"][0])
        assert samples == 200 and 0 < decided < 200
        assert 256 * (200 - decided) <= iterates < 4096 * 200

    def test_niter_caps_the_monte_carlo_sweep(self, arnold_file, tmp_path):
        out = str(tmp_path / "w")
        assert main(["windows", "--input", arnold_file, "--qmax", "2", "--niter", "300",
                     "--out", out, "--samples", "50", "--workers", "1"]) == 0
        table = json.loads(read(os.path.join(out, "report.json")))["tables"]["mc_iterates"]
        _, iterates, decided = (int(v) for v in table["rows"][0])
        assert 256 * (50 - decided) <= iterates <= 300 * (50 - decided)

    def test_grid_decides_no_sample_by_windows(self, arnold_file, tmp_path):
        # windows solved on another grid than the lock checks' say nothing
        # about the sweep's lock checks
        out = str(tmp_path / "w")
        assert main(["windows", "--input", arnold_file, "--qmax", "2", "--grid", "1024",
                     "--out", out, "--samples", "50", "--workers", "1"]) == 0
        table = json.loads(read(os.path.join(out, "report.json")))["tables"]["mc_iterates"]
        _, iterates, decided = (int(v) for v in table["rows"][0])
        assert decided == 0 and 256 * 50 <= iterates

    @pytest.mark.parametrize("const, at, radius", [(1e12, "-1e+12", "6.1e-05"),
                                                   (1e300, "-1e+300", "7.44e+283"),
                                                   (1.7e308, "-inf", "inf")])
    def test_edge_beyond_tol_exits_2(self, const, at, radius, tmp_path):
        # near t = -const the floats, or 64 bisections of the first bracket,
        # are too coarse for --tol 1e-6; at 1.7e308 the orbits overflow
        fam = tmp_path / "far.json"
        fam.write_text(json.dumps({"label": "far", "winding": 1, "const": [const],
                                   "harmonics": [{"j": 1, "a": [0.0], "b": [0.1]}]}))
        out = tmp_path / "o"
        res = subprocess.run(
            [sys.executable, "-W", "default", "-m", "circledyn.cli", "windows",
             "--input", str(fam), "--qmax", "2", "--tol", "1e-6", "--samples", "10",
             "--workers", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert res.returncode == 2, res.stderr
        assert f"0/1 window near t={at} keeps a bracket radius of {radius} " in res.stderr
        assert "above tol 1e-06" in res.stderr
        assert "Warning" not in res.stderr, res.stderr
        assert not out.exists()

    def test_unbracketable_edge_exits_2(self, tmp_path, capsys):
        # theta + t^2 never drops below 0/1, so its lo edge has no bracket
        fam = tmp_path / "square.json"
        fam.write_text(json.dumps({"label": "square", "winding": 1, "const": [0.0, 0.0, 1.0],
                                   "harmonics": []}))
        out = tmp_path / "o"
        assert main(["windows", "--input", str(fam), "--qmax", "2", "--samples", "10",
                     "--workers", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: could not bracket the lo edge of the 0/1 window" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestDioCommand:
    def test_csv(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["dio", "--C", "0.2,0.1", "--nmax", "100",
                     "--grid", "5000", "--out", out]) == 0
        lines = read(os.path.join(out, "dio.csv")).strip().splitlines()
        assert lines[0] == "C,n_max,estimate,analytic_lower,grid_error"
        assert len(lines) == 3

    def test_exact_measure_in_report(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["dio", "--C", "0.2,0.1", "--nmax", "100",
                     "--grid", "5000", "--out", out]) == 0
        lines = read(os.path.join(out, "dio.csv")).strip().splitlines()
        exact = json.loads(read(os.path.join(out, "report.json")))["tables"]["dio_exact"]
        assert exact["header"] == ["C", "n_max", "exact", "exact_error", "certified_lower"]
        assert [r[:2] for r in exact["rows"]] == [r.split(",")[:2] for r in lines[1:]]
        assert [r[2] for r in exact["rows"]] == [r.split(",")[2] for r in lines[1:]]

    def test_certified_lower_in_report(self, tmp_path):
        # proven for C <= 1 only, and empty above
        out = str(tmp_path / "d")
        assert main(["dio", "--C", "0.2,1.4", "--nmax", "60", "--out", out]) == 0
        rows = json.loads(read(os.path.join(out, "report.json")))["tables"]["dio_exact"]["rows"]
        lower = diophantine.dio_measure(diophantine.DioParams(0.2, 60)).certified_lower
        assert [r[4] for r in rows] == [cio.fmt_cell(lower), ""]

    def test_grid_beyond_memory(self, tmp_path):
        # ten billion cells: the measure tests no grid
        out = str(tmp_path / "d")
        assert main(["dio", "--C", "0.1", "--nmax", "2", "--grid", "10000000000",
                     "--out", out]) == 0
        row = read(os.path.join(out, "dio.csv")).strip().splitlines()[1].split(",")
        assert row[1:3] == ["2", "0.96616628378574054"]


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

    def test_c3_decided_by(self, skew_file, tmp_path):
        # Arnold fibers of C3 size 0.05: the certified bound (about 0.05 n)
        # settles R = 0.12 for periods 1 and 2; period 3 falls to the grid
        out, R = str(tmp_path / "s"), 0.12
        assert main(["skew", "--input", skew_file, "--nmax", "3", "--R", str(R),
                     "--t", "0.33", "--out", out, "--workers", "1", "--niter", "256"]) == 0
        rows = [r.split(",") for r in read(os.path.join(out, "circles.csv")).split()[1:]]
        table = json.loads(read(os.path.join(out, "report.json")))["tables"]["c3_decided_by"]
        assert table["header"] == ["k", "n", "decided_by"]
        assert [r[:2] for r in table["rows"]] == [r[:2] for r in rows]
        F = cio.load_skew(skew_file)
        for (k, n, num, den, sup, passes), (_, _, by) in zip(rows, table["rows"]):
            circle = skew.PeriodicCircle(int(k), int(n), Fraction(int(num), int(den)))
            rf = skew.restricted_family(F, circle)
            if by == "bound":
                assert float(sup) == rf.c3_bound() < R and passes == "1"
            else:
                assert float(sup) == rf.c3_sup(skew.C3_T_GRID, skew.C3_Y_GRID)
                assert passes == ("1" if float(sup) < R else "0")
        assert [r[2] for r in table["rows"]] == ["bound"] * 3 + ["grid"] * 6
        assert "decided_by" not in read(os.path.join(out, "circles.csv"))


class TestTheoremACommand:
    def test_norm_bounds(self, skew_file, tmp_path):
        out = str(tmp_path / "a")
        assert main(["theoremA", "--input", skew_file, "--nmax", "3", "--samples", "20",
                     "--qmax", "5", "--eta-families", "1", "--eta-samples", "20",
                     "--out", out, "--workers", "1"]) == 0
        hyp = json.loads(read(os.path.join(out, "report.json")))["hypotheses"]
        fams = skew.first_per_period(cio.load_skew(skew_file), 3)
        assert hyp["norm_bounds"] == [max(f.c3_bound(), f.dt_sup_bound()) for f in fams]
        assert hyp["norm_bounds_below_one"] is True
        assert len(hyp["norms"]) == 3 and hyp["norms_below_one"] is True


class TestReportRecord:
    """``report.json`` lists each CSV by its data rows and bytes, and holds
    none of its rows."""

    @pytest.mark.parametrize("argv", [
        ["rho", "--input", "{arnold}", "--t", "0.05,0.25", "--t-range", "0:1:7",
         "--qmax", "5"],
        ["windows", "--input", "{arnold}", "--qmax", "3", "--samples", "50"],
        ["dio", "--C", "0.2,0.1", "--nmax", "20", "--grid", "1000"],
        ["theoremA", "--input", "{skew}", "--nmax", "2", "--samples", "20", "--qmax", "5",
         "--eta-families", "1", "--eta-samples", "20"],
    ], ids=["rho", "windows", "dio", "theoremA"])
    def test_outputs_list_each_csv(self, argv, arnold_file, skew_file, tmp_path):
        out = tmp_path / "o"
        argv = [a.format(arnold=arnold_file, skew=skew_file) for a in argv]
        assert main(serial(argv) + ["--out", str(out)]) == 0
        report = json.loads(read(out / "report.json"))
        csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
        assert csvs and sorted(report["outputs"]) == csvs
        for fname in csvs:
            data = (out / fname).read_bytes()
            assert report["outputs"][fname] == {"rows": data.count(b"\n") - 1,
                                                "bytes": len(data)}
        assert not set(report["tables"]) & {name for f in csvs for name in (f, f[:-4])}

    def test_report_of_a_large_sweep_stays_small(self, arnold_file, tmp_path):
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t-range", "0:1:3000", "--niter", "64",
                     "--qmax", "3", "--workers", "1", "--out", str(out)]) == 0
        assert (out / "report.json").stat().st_size < 2048
        assert json.loads(read(out / "report.json"))["outputs"]["rho.csv"]["rows"] == 3000


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


    @pytest.mark.usefixtures("small_blocks")
    def test_rho_parallel_matches_serial(self, tmp_path, monkeypatch):
        # two workers sweep two blocks, one of them holding a t outside
        # [0, 1], so the blocks and the choice of rounding bound both show
        fam = tmp_path / "phased.json"
        fam.write_text(json.dumps({
            "label": "arnold-phased", "winding": 1,
            "harmonics": [{"j": 1, "a": [0.07], "b": [-0.06]}],
        }))
        args = ["rho", "--input", str(fam), "--t-range", "0:1:600", "--t", "1e20",
                "--qmax", "4", "--niter", "256"]
        outs = [str(tmp_path / f"w{w}") for w in (1, 2)]
        started = pool_starts(monkeypatch)
        for out, workers in zip(outs, ("1", "2")):
            assert main(args + ["--out", out, "--workers", workers]) == 0
        assert started == [2]  # by the pooled call only
        serial, parallel = (read(os.path.join(out, "rho.csv")) for out in outs)
        assert serial == parallel and len(serial.splitlines()) == 602

    @pytest.mark.usefixtures("small_blocks")
    def test_theoremA_parallel_split_matches_serial(self, tmp_path):
        # at fiber C3 0.3 and seed 11, 3 of 300 samples lie in family 1's
        # locking windows and survive it, so two workers split the survivors
        # of families 2 and 3 into real blocks
        skew_file = tmp_path / "skew.json"
        skew_file.write_text(json.dumps({
            "m": 2, "harmonics": [{"jx": 0, "jy": 1, "a": [0.0], "b": [0.3 / TAU ** 3]}],
        }))
        args = ["theoremA", "--input", str(skew_file), "--nmax", "3", "--samples", "300",
                "--qmax", "20", "--eta-families", "1", "--eta-samples", "50",
                "--seed", "11"]
        outs = [str(tmp_path / f"w{w}") for w in (1, 2)]
        for out, workers in zip(outs, ("1", "2")):
            assert main(args + ["--out", out, "--workers", workers]) == 0
        for out in outs:
            table = json.loads(read(os.path.join(out, "report.json")))["tables"]
            rows = table["intersection_classified"]["rows"]
            assert table["intersection_classified"]["header"] == ["N", "classified"]
            assert [r[0] for r in rows] == ["1", "2", "3"] and rows[0][1] == "300"
            assert int(rows[1][1]) >= 2
            iterates = table["intersection_iterates"]
            assert iterates["header"] == ["N", "iterates"]
            assert [r[0] for r in iterates["rows"]] == ["1", "2", "3"]
            for (_, n), (_, it) in zip(rows, iterates["rows"]):
                assert 256 * int(n) <= int(it) <= 4096 * int(n)
        for fname in ("intersection.csv", "eta.csv"):
            serial, parallel = (read(os.path.join(out, fname)) for out in outs)
            assert serial == parallel, fname

    @pytest.mark.usefixtures("small_blocks")
    def test_theoremA_eta_sweep_parallel_matches_serial(self, skew_file, tmp_path):
        # 4 levels x 3 sampled families, merged into one sweep and cut into
        # two blocks by two workers
        args = ["theoremA", "--input", skew_file, "--nmax", "2", "--samples", "20",
                "--qmax", "10", "--eta-families", "3", "--eta-samples", "60", "--seed", "3"]
        outs = [str(tmp_path / f"w{w}") for w in (1, 2)]
        for out, workers in zip(outs, ("1", "2")):
            assert main(args + ["--out", out, "--workers", workers]) == 0
        serial, parallel = (read(os.path.join(out, "eta.csv")) for out in outs)
        assert serial == parallel and len(serial.splitlines()) == 5
        tables = [json.loads(read(os.path.join(out, "report.json")))["tables"]["eta_iterates"]
                  for out in outs]
        assert tables[0] == tables[1]
        assert tables[0]["header"] == ["r", "family", "iterates"]
        rows = tables[0]["rows"]
        assert [r[1] for r in rows] == ["1", "2", "3"] * 4
        assert len({r[0] for r in rows}) == 4
        assert all(256 * 60 <= int(r[2]) <= 4096 * 60 for r in rows)
        assert "iterates" not in serial


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-m", "circledyn.cli", "--version"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "circledyn" in res.stdout


# a fresh interpreter that runs one CLI call and prints its exit code and
# every module whose body has run by the end of it (a library module that the
# package binds lazily is not a plain module until its first use)
LOADED_AFTER = ("import sys, types; from circledyn import cli; code = cli.main(sys.argv[1:]); "
                "print(code, *sorted(n for n, m in sys.modules.items() "
                "if type(m) is types.ModuleType))")


class TestImportGraph:
    """Each subcommand imports only the modules it runs."""

    @pytest.mark.parametrize("argv, needed, unloaded", [
        (["dio", "--C", "0.1", "--nmax", "5", "--grid", "1000"], ["circledyn.diophantine"],
         ["circledyn." + m for m in ("circle_map", "rotation", "farey", "skew", "windows",
                                     "experiments")] + ["numpy.polynomial", "concurrent.futures"]),
        (["windows", "--input", "{family}", "--qmax", "3", "--samples", "20", "--workers", "1"],
         ["circledyn.windows"],
         ["circledyn.skew", "circledyn.experiments", "circledyn.diophantine",
          "concurrent.futures"]),
        (["skew", "--input", "{skew}", "--t", "0.1", "--nmax", "2", "--workers", "1"],
         ["circledyn.skew"], ["circledyn.windows", "circledyn.diophantine"]),
    ], ids=["dio", "windows", "skew"])
    def test_subcommand_loads_only_its_modules(self, argv, needed, unloaded, arnold_file,
                                               skew_file, tmp_path):
        argv = [a.format(family=arnold_file, skew=skew_file) for a in argv]
        res = subprocess.run([sys.executable, "-c", LOADED_AFTER, *argv,
                              "--out", str(tmp_path / "o")], capture_output=True, text=True)
        code, *loaded = res.stdout.split()
        assert code == "0", res.stderr
        assert set(needed) <= set(loaded)
        assert set(unloaded).isdisjoint(loaded)


class TestWorkers:
    """``--workers 0`` runs one worker per core this process may use."""

    def test_zero_uses_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._workers(cli.RunConfig("rho", {"workers": 0})) == 3
        assert cli._workers(cli.RunConfig("rho", {"workers": 2})) == 2

    @pytest.mark.parametrize("cores, expected", [(6, 6), (None, 1)])
    def test_zero_without_affinity_uses_cpu_count(self, cores, expected, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert cli._workers(cli.RunConfig("rho", {"workers": 0})) == expected

    @pytest.mark.usefixtures("no_pools")
    def test_small_sweep_starts_no_pool(self, arnold_file, tmp_path):
        # two values are one block, so two workers have nothing to share
        outs = [str(tmp_path / f"w{w}") for w in (1, 2)]
        for out, workers in zip(outs, ("1", "2")):
            assert main(["rho", "--input", arnold_file, "--t", "0.3,0.6", "--qmax", "5",
                         "--out", out, "--workers", workers]) == 0
        serial, pooled = (read(os.path.join(out, "rho.csv")) for out in outs)
        assert serial == pooled and len(serial.splitlines()) == 3

    def test_pool_starts_on_first_use(self, monkeypatch):
        started = pool_starts(monkeypatch)
        with cli._Pool(2) as pool:
            assert pool.map(abs, [-3]) == [3] and started == []
            assert pool.map(abs, [-1, 2, -4]) == [1, 2, 4] and started == [2]
            assert pool.map(abs, [-5, 6]) == [5, 6] and started == [2]
        with cli._Pool(1) as pool:
            assert pool.map(abs, [-1, 2, -4]) == [1, 2, 4] and started == [2]


# -- fuzzed option values ----------------------------------------------------

# Each option has valid values, edge cases among them, and bad values: out
# of range, non-finite or malformed.  Parsable numbers are bounded (qmax
# <= 5, niter <= 64, lock grid <= 2048, nmax <= 3, samples <= 40, at most three
# t values) so that no example allocates a large array or runs long; qmax,
# nmax, samples and niter are always given, because their defaults are the
# expensive full-size runs.
JUNK = ["", " ", "abc", "1.5.2", "0x10", "1e", ",", "--", "nan", "inf", "-inf", "1e400",
        "None", "true"]
T_EDGE = ["0", "-0.0", "1", "1e-300", "5e-324", " 0.5 ", "1_0.5", "1e300", "-1e308",
          "1.7976931348623157e308"]


def option(valid, *bad):
    return valid, st.sampled_from(list(bad) + JUNK)


def ints(lo, hi, *bad, edge=("+1", "01", " 2 ", "٣", "２"), also=st.nothing()):
    return option(st.integers(lo, hi).map(str) | also | st.sampled_from(edge), *bad)


def reals(lo, hi, edge):
    return st.floats(lo, hi).map(repr) | st.sampled_from(edge)


def real_list(lo, hi, edge, *bad):
    return option(st.lists(reals(lo, hi, edge), min_size=1, max_size=3).map(",".join),
                  "0.1,,0.2", "0.1;0.2", ",0.1", "0.1,inf", *bad)


T_LIST = real_list(-2, 2, T_EDGE)
T_RANGE = option(st.tuples(reals(-2, 2, T_EDGE), reals(-2, 2, T_EDGE),
                           st.integers(0, 3).map(str)).map(":".join),
                 "0:1", "0:1:2:3", "0:1:-1", "0:nan:2", "0:1:1.5", "-1e308:1e308:3")


def argv(cmd, required, optional):
    """``cmd`` with every ``required`` option and any of the ``optional``
    ones, all valid or all but one, as ``--name=value`` so that values may
    start with a minus sign."""
    options = {**required, **optional}
    good = st.fixed_dictionaries({k: v for k, (v, _) in required.items()},
                                 optional={k: v for k, (v, _) in optional.items()})
    spoil = st.sampled_from(sorted(options)).flatmap(
        lambda k: st.tuples(st.just(k), options[k][1]))

    def build(opts, bad):
        if bad:
            opts = {**opts, bad[0]: bad[1]}
        return [cmd] + [f"{k}={v}" for k, v in opts.items()]

    return st.builds(build, good, st.none() | spoil)


FUZZ_ARGV = {
    "rho": argv("rho", {"--qmax": ints(1, 5, "0", "-1"), "--niter": ints(0, 64, "-1"),
                        "--t": T_LIST},
                {"--t-range": T_RANGE}),
    "windows": argv("windows", {"--qmax": ints(1, 5, "0", "-1"),
                                "--samples": ints(1, 40, "0", "-1")},
                    {"--tol": option(reals(1e-9, 1e-2, ["1e-300", "5e-324", "1e300"]),
                                     "0", "-1e-6"),
                     "--grid": ints(0, 2048, "-1", str(2 ** 24 + 1)),
                     "--seed": ints(0, 2 ** 70, "-1")}),
    # niter 0 would select the default 4096 iterates per circle and t
    "skew": argv("skew", {"--nmax": ints(1, 3, "0", "-1"), "--qmax": ints(1, 5, "0", "-1"),
                          "--niter": ints(1, 64, "0", "-1", edge=("+1", "01")), "--t": T_LIST},
                 {"--R": option(reals(0.01, 0.99, ["1e-300", "0.9999999999999999"]),
                                "0", "1", "-0.5", "1.5"),
                  "--t-range": T_RANGE}),
    "dio": argv("dio", {"--nmax": ints(1, 3, "0", "-1", str(MAX_N_MAX + 1)),
                        "--C": real_list(0.001, 2.0, ["2", "1e-300", "5e-324"],
                                         "0", "-1", "2.0000000000000004")},
                # the measure tests no grid, so any grid size is cheap
                {"--grid": ints(0, 2048, "-1", also=st.integers(2 ** 48 + 1, 10 ** 30).map(str))}),
}
INPUT = {"rho": "family", "windows": "family", "skew": "skew", "dio": None}


@pytest.mark.parametrize("cmd", sorted(FUZZ_ARGV))
def test_fuzzed_options_keep_the_exit_contract(cmd, arnold_file, skew_file, tmp_path):
    inputs = {"family": arnold_file, "skew": skew_file}

    # the fixture files are only read; each example makes its own output dir
    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(FUZZ_ARGV[cmd])
    def check(args):
        out = tempfile.mkdtemp(dir=tmp_path)
        os.rmdir(out)
        if INPUT[cmd]:
            args = args + ["--input", inputs[INPUT[cmd]]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(serial(args + ["--out", out]))
            except SystemExit as e:  # argparse rejects the value itself
                code = e.code
        assert code in (0, 2, 3, 4), (args, err.getvalue())
        if code == 2:
            assert "error:" in err.getvalue(), args
        if code != 0:
            assert not os.path.exists(out) or not os.listdir(out), args

    check()


# -- the option table ---------------------------------------------------------

COMMON_FLAGS = ["--out", "--config", "--seed"]
FLAGS = {
    "rho": ["--input", *COMMON_FLAGS, "--workers", "--qmax", "--niter", "--t", "--t-range"],
    "windows": ["--input", *COMMON_FLAGS, "--workers", "--qmax", "--tol", "--grid", "--niter",
                "--samples"],
    "tongues": ["--input", *COMMON_FLAGS, "--workers", "--qmax", "--tol", "--grid",
                "--deltas"],
    "dio": [*COMMON_FLAGS, "--grid", "--C", "--nmax"],
    "skew": ["--input", *COMMON_FLAGS, "--workers", "--qmax", "--niter", "--nmax", "--R",
             "--t", "--t-range"],
    "theoremA": ["--input", *COMMON_FLAGS, "--workers", "--qmax", "--niter", "--nmax",
                 "--samples", "--eta-families", "--eta-samples"],
}


def parser_flags():
    """The long flags of each subcommand's parser, --help left out."""
    subs = next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings if s != "--help"} - {"-h"}
            for name, p in subs.choices.items()}


def test_each_subcommand_keeps_its_flags():
    assert parser_flags() == {name: set(flags) for name, flags in FLAGS.items()}


@pytest.mark.parametrize("argv", [
    ["rho", "--input", "{family}", "--t", "0.3", "--grid", "64"],
    ["rho", "--input", "{family}", "--t", "0.3", "--tol", "0.9"],
    ["tongues", "--input", "{family}", "--deltas", "0.1", "--niter", "100"],
    ["dio", "--C", "0.1", "--qmax", "5"],
    ["dio", "--C", "0.1", "--workers", "1"],
], ids=["rho-grid", "rho-tol", "tongues-niter", "dio-qmax", "dio-workers"])
def test_option_the_subcommand_does_not_read_exit_2(argv, arnold_file, tmp_path, capsys):
    out = tmp_path / "o"
    argv = [a.format(family=arnold_file) for a in argv] + ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[-4] in capsys.readouterr().err
    assert not out.exists()


def test_man_page_lists_each_subcommand_flags():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    page = read(os.path.join(root, "docs", "circledyn.1.md"))
    synopsis = page.split("## SYNOPSIS")[1].split("## ")[0]
    common = page.split("## COMMON OPTIONS")[1].split("\n\n")[1]
    common_flags = set(re.findall(r"`(--[\w-]+)", common))
    for name, flags in parser_flags().items():
        line = re.search(rf"^circledyn {name} .*$", synopsis, re.M).group(0)
        own = set(re.findall(r"--[\w-]+", line))
        # --input is common to the subcommands whose SYNOPSIS line names it
        assert flags == own | (common_flags - {"--input"}), name


class TestOptionLayers:
    def test_env_of_another_subcommand_is_ignored(self, arnold_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CIRCLEDYN_NMAX", "0")
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t", "0.05", "--qmax", "3",
                     "--out", str(out), "--workers", "1"]) == 0
        assert "nmax" not in json.loads(read(out / "run_config.json"))

    def test_env_of_another_subcommand_is_not_recorded(self, arnold_file, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("CIRCLEDYN_T", "0.3")
        out = tmp_path / "o"
        assert main(["windows", "--input", arnold_file, "--qmax", "2", "--samples", "5",
                     "--out", str(out), "--workers", "1"]) == 0
        assert "t" not in json.loads(read(out / "run_config.json"))

    @pytest.mark.parametrize("key", ["qmx", "label", "config", "t range"])
    def test_unknown_config_key_exit_2(self, key, arnold_file, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"qmax": 3, key: 5}))
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t", "0.05", "--config", str(conf),
                     "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert str(conf) in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd,conf", [
        ("rho", {"qmax": 5.7}), ("rho", {"seed": True}), ("rho", {"niter": 100.5}),
        ("rho", {"qmax": True}), ("windows", {"tol": False}), ("rho", {"niter": 1e400}),
    ], ids=["qmax-5.7", "seed-true", "niter-100.5", "qmax-true", "tol-false", "niter-1e400"])
    def test_fractional_or_boolean_config_value_exit_2(self, cmd, conf, arnold_file, tmp_path,
                                                       capsys):
        # int() would run these as qmax 5, seed 1, niter 100
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        out = tmp_path / "o"
        argv = ["--t", "0.05"] if cmd == "rho" else ["--qmax", "2", "--samples", "5"]
        assert main([cmd, "--input", arnold_file, *argv, "--config", str(path),
                     "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(next(iter(conf))) in err
        assert not out.exists()

    def test_integral_float_config_value_is_an_int(self, arnold_file, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps({"qmax": 5.0, "niter": 300.0}))
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t", "0.05", "--config", str(path),
                     "--out", str(out), "--workers", "1"]) == 0
        cfg = json.loads(read(out / "run_config.json"))
        assert (cfg["qmax"], cfg["niter"]) == (5, 300)

    @pytest.mark.parametrize("layer", ["env", "config", "flag"])
    @pytest.mark.parametrize("cmd,key,value,flag", [
        ("skew", "nmax", 0, "--nmax"), ("skew", "R", 2.0, "--R"),
        ("skew", "nmax", 13, "--nmax"), ("windows", "tol", 0.01, "--tol"),
        ("windows", "samples", 10 ** 12, "--samples"),
        ("theoremA", "samples", 10 ** 12, "--samples"),
        ("theoremA", "eta_samples", 10 ** 12, "--eta-samples"),
        ("theoremA", "eta_families", 10 ** 12, "--eta-families"),
    ], ids=["nmax-0", "R-2", "skew-nmax-cap", "windows-tol-bound", "windows-samples-cap",
            "theoremA-samples-cap", "theoremA-eta-samples-cap", "theoremA-eta-families-cap"])
    def test_range_error_names_its_layer(self, layer, cmd, key, value, flag, arnold_file,
                                         skew_file, tmp_path, capsys, monkeypatch):
        # the skew cap and the window tolerance need the definition file, so
        # they are checked after the others
        argv = [cmd, "--input", arnold_file if cmd == "windows" else skew_file, "--qmax", "10",
                "--workers", "1", "--out", str(tmp_path / "o")]
        argv += ["--t", "0.1"] if cmd == "skew" else []
        conf = tmp_path / "conf.json"
        if layer == "env":
            monkeypatch.setenv("CIRCLEDYN_" + key.upper(), str(value))
        elif layer == "config":
            conf.write_text(json.dumps({key: value}))
            argv += ["--config", str(conf)]
        else:
            argv += [flag, str(value)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        source = {"env": "CIRCLEDYN_" + key.upper(), "config": str(conf), "flag": ""}[layer]
        assert err.startswith(f"error: {source + ': ' if source else ''}{flag} must ")
        assert not (tmp_path / "o").exists()

    def test_config_key_of_another_subcommand_is_not_recorded(self, arnold_file, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"qmax": 3, "samples": 7, "eta-samples": 0, "C": "x"}))
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t", "0.05", "--config", str(conf),
                     "--out", str(out), "--workers", "1"]) == 0
        cfg = json.loads(read(out / "run_config.json"))
        assert cfg["qmax"] == 3
        assert not {"samples", "eta_samples", "eta-samples", "C"} & set(cfg)

    def test_no_label_option(self, arnold_file, tmp_path):
        out = tmp_path / "o"
        assert main(["rho", "--input", arnold_file, "--t", "0.05", "--qmax", "3",
                     "--out", str(out), "--workers", "1"]) == 0
        config = json.loads(read(out / "report.json"))["inputs"]["config"]
        assert "label" not in json.loads(read(out / "run_config.json"))
        assert "label" not in config and "subcommand" not in config

    @pytest.mark.parametrize("argv", [
        ["rho", "--input", "{family}", "--t", "0.05,0.3", "--t-range", "0:1:3", "--qmax", "5",
         "--niter", "500"],
        ["windows", "--input", "{family}", "--qmax", "3", "--samples", "20", "--seed", "4"],
        ["tongues", "--input", "{family}", "--deltas", "0:1:3", "--qmax", "3"],
        ["dio", "--C", "0.1,0.2", "--nmax", "20", "--grid", "500"],
        ["skew", "--input", "{skew}", "--t", "0.3", "--nmax", "2", "--qmax", "5",
         "--niter", "300", "--R", "0.4"],
        ["theoremA", "--input", "{skew}", "--nmax", "2", "--samples", "20", "--qmax", "5",
         "--eta-families", "1", "--eta-samples", "10", "--niter", "300"],
    ], ids=["rho", "windows", "tongues", "dio", "skew", "theoremA"])
    def test_replay_of_run_config(self, argv, arnold_file, skew_file, tmp_path):
        # a dump passed back with --config, and nothing else, runs again
        argv = [a.format(family=arnold_file, skew=skew_file) for a in argv]
        first = tmp_path / "first"
        assert main(serial(argv + ["--out", str(first)])) == 0
        conf = first / "run_config.json"
        dumped = json.loads(read(conf))
        assert dumped["subcommand"] == argv[0]
        assert main([argv[0], "--config", str(conf)] + ["--out", str(tmp_path / "again")]) == 0
        csvs = sorted(f for f in os.listdir(first) if f.endswith(".csv"))
        assert csvs and csvs == sorted(f for f in os.listdir(tmp_path / "again")
                                       if f.endswith(".csv"))
        for fname in csvs:
            assert read(first / fname) == read(tmp_path / "again" / fname), fname
        again = json.loads(read(tmp_path / "again" / "run_config.json"))
        assert {**again, "out": None} == {**dumped, "out": None}


class TestSkewCircleCap:
    @pytest.mark.parametrize("nmax", [13, 10 ** 400], ids=["13", "1e400"])
    def test_exit_2_before_any_circle(self, nmax, skew_file, tmp_path, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError(f"circle built: {args}")

        monkeypatch.setattr(skew, "periodic_circles", unbuilt)
        monkeypatch.setattr(skew, "restricted_family", unbuilt)
        out = tmp_path / "o"
        assert main(["skew", "--input", skew_file, "--t", "0.1", "--nmax", str(nmax),
                     "--out", str(out), "--workers", "1"]) == 2
        assert "--nmax" in capsys.readouterr().err
        assert not out.exists()

    def test_cap_admits_m2_nmax_12(self, skew_file, tmp_path, monkeypatch):
        # 2^12 - 1 <= MAX_CIRCLES: the circles would be checked
        checked = []
        monkeypatch.setattr(skew, "circle_checks", lambda F, n, R: checked.append(n) or [])
        assert main(["skew", "--input", skew_file, "--t", "0.1", "--nmax", "12",
                     "--out", str(tmp_path / "o"), "--workers", "1"]) == 0
        assert checked == [12] and 2 ** 12 - 1 <= skew.MAX_CIRCLES < 2 ** 13 - 1


class TestSampleCap:
    """Sample counts and a:b:n sweeps are capped at ``MAX_SAMPLES``, so a
    huge count exits 2 instead of failing to allocate its arrays (the
    sample-count cases are in ``test_range_error_names_its_layer``)."""

    @pytest.mark.parametrize("cmd", ["windows", "theoremA"])
    def test_cap_itself_passes(self, cmd):
        args = cli.build_parser().parse_args([cmd, "--input", "f.json", "--samples",
                                              str(cli.MAX_SAMPLES)])
        assert cli._merge_config(cmd, args).samples == cli.MAX_SAMPLES

    @pytest.mark.parametrize("layer", ["env", "flag"])
    def test_sweep_above_cap_exit_2(self, layer, arnold_file, tmp_path, capsys, monkeypatch):
        sweep = f"0:1:{10 ** 12}"
        argv = ["rho", "--input", arnold_file, "--workers", "1", "--out", str(tmp_path / "o")]
        if layer == "env":
            monkeypatch.setenv("CIRCLEDYN_T_RANGE", sweep)
        else:
            argv.append(f"--t-range={sweep}")
        assert main(argv) == 2
        source = "CIRCLEDYN_T_RANGE: " if layer == "env" else ""
        assert capsys.readouterr().err.strip() == (
            f"error: {source}--t-range must have 1 <= n <= {cli.MAX_SAMPLES}, got {sweep!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, env, name", [
        (["tongues", "--deltas", "0:0.1:0"], {}, "--deltas"),
        (["rho", "--t", "0.5", "--t-range", "0:0.1:0"], {}, "--t-range"),
        (["rho", "--t", "0.5"], {"CIRCLEDYN_T_RANGE": "0:0.1:0"}, "CIRCLEDYN_T_RANGE: --t-range"),
    ], ids=["tongues-deltas", "rho-t-range", "rho-t-range-env"])
    def test_empty_sweep_exit_2(self, argv, env, name, arnold_file, tmp_path, capsys,
                                monkeypatch):
        # n = 0 asks for no points: exit 2 rather than a header-only CSV or
        # a sweep silently dropped next to --t
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        out = tmp_path / "o"
        assert main([argv[0], "--input", arnold_file, *argv[1:], "--workers", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            f"error: {name} must have 1 <= n <= {cli.MAX_SAMPLES}, got '0:0.1:0'")
        assert not out.exists()

    def test_sweep_at_cap_parses(self):
        cfg = cli.RunConfig("rho", {"t_range": f"0:1:{cli.MAX_SAMPLES}"})
        ts = cli._parse_t_values(cfg)
        assert len(ts) == cli.MAX_SAMPLES and ts[-1] == 1.0
