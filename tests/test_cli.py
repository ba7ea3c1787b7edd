import json
import os
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from sparsetomo import io as stio
from sparsetomo.cli import main
from sparsetomo.experiments import ExperimentConfig, run_recovery_sweep
from sparsetomo.phantoms import PhantomSpec
from sparsetomo.solve import SolveConfig


@pytest.fixture()
def runner():
    return CliRunner()


def test_atlas_build(tmp_path, runner):
    res = runner.invoke(main, ["atlas", "build", "--wavelet-order", "1",
                               "--jmax", "2", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "atoms 244" in res.output
    assert (tmp_path / "atlas_order1_j2.bin").exists()
    assert (tmp_path / "atlas_order1_j2.bin.hdr").exists()


def test_certify_writes_reports(tmp_path, runner):
    res = runner.invoke(main, ["certify", "--j0", "1", "--jmax", "2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "certificate.txt").exists()
    assert (tmp_path / "coherence.csv").exists()
    assert "b_fit" in res.output


@pytest.mark.parametrize("args", [["certify", "--m", "64"], ["atlas", "build", "--beta", "0.1"],
                                  ["reconstruct", "--gamma", "0.2"], ["sweep", "--beta", "0.1"]])
def test_command_rejects_flags_it_does_not_read(tmp_path, runner, args):
    # each command declares only the flags it reads: an unread one is a usage error
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output


@pytest.mark.parametrize("args, message", [
    (["certify", "--model", "fanbeam", "--wavelet-order", "2", "--j0", "1", "--jmax", "2"],
     "need 0 < d < rho"),
    (["certify", "--wavelet-order", "9"], "unsupported filter order 9"),
    (["certify", "--j0", "4", "--jmax", "2"], "j0 must be <= j_max"),
    (["reconstruct", "--j0", "4", "--jmax", "2", "--m", "8"], "j0 must be <= j_max"),
    (["sweep", "--betas", "1.5", "--ms", "8"], "beta values must lie in [0, 1)"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--m", "0"], "m values must be >= 1"),
    (["sweep", "--j0", "1", "--jmax", "2", "--m", "0"], "m values must be >= 1"),
    (["sweep", "--model", "fourier", "--ms", "8", "--j0", "1", "--jmax", "2"],
     "sweep drives the tomographic models (radon, fanbeam), not fourier"),
    (["certify", "--model", "fourier", "--j0", "-1"], "j0 must be >= 0"),
    (["sweep", "--gamma", "0.3", "--ms", "8"], "No such option"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--s", "500"], "s=500 exceeds window size 64"),
    (["sweep", "--j0", "1", "--jmax", "2", "--s", "500", "--ms", "8"],
     "s=500 exceeds window size 64"),
    (["sweep", "--j0", "1", "--jmax", "2", "--seeds", "0"],
     "explicit ms required unless m_rule is noise_matched"),
    (["atlas", "build", "--wavelet-order", "9"], "unsupported filter order 9"),
    (["atlas", "build", "--jmax", "-1"], "j_max must be >= 0"),
])
def test_input_errors_are_usage_errors(tmp_path, runner, args, message):
    # inputs the model or the config rejects end in a usage error, not a traceback
    res = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("--s", "1"), ("--n-seeds", "0"), ("--j0", "-1"),
                                         ("--pilot-j0", "0"), ("--gamma", "0")])
def test_exact_recovery_rejects_flags_out_of_range(runner, flag, value):
    # s = 1 or pilot j0 = 0 would make the calibrated constant infinite
    res = runner.invoke(main, ["exact-recovery", flag, value])
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{flag}'" in res.output


@pytest.mark.parametrize("pilot_j0, j0", [(1, 1), (2, 1)])
def test_exact_recovery_phantom_must_fit_both_windows(runner, pilot_j0, j0):
    # the sparse phantom is checked against the pilot and the main window
    # before the calibration runs
    res = runner.invoke(main, ["exact-recovery", "--s", "100", "--j0", str(j0),
                               "--pilot-j0", str(pilot_j0), "--n-seeds", "1"])
    assert res.exit_code == 2, res.output
    assert "s=100 exceeds window size 64" in res.output


def test_reconstruct_outputs(tmp_path, runner):
    res = runner.invoke(main, ["reconstruct", "--j0", "1", "--jmax", "2",
                               "--s", "2", "--m", "24", "--seed", "3",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "reconstruction.pgm").exists()
    assert (tmp_path / "reconstruction.bin").exists()
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "system" / "A.bin").exists()
    assert "status optimal" in res.output


def test_readme_reconstruct_example_certifies(tmp_path, runner):
    res = runner.invoke(main, ["reconstruct", "--j0", "2", "--jmax", "3", "--s", "5",
                               "--m", "64", "--beta", "0.05", "--seed", "1",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("status optimal")
    # it certifies in 650 iterations; the bound leaves room for BLAS rounding
    words = res.output.split()
    assert int(words[words.index("iterations") + 1]) <= 2000, res.output
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(trace) > 1 and float(trace[-1].split(",")[3]) >= 0.0


def test_sweep_and_fit(tmp_path, runner):
    out = tmp_path / "sweep"
    res = runner.invoke(main, ["sweep", "--j0", "1", "--jmax", "2", "--s", "2",
                               "--betas", "0.1,0.05,0.025,0.0125",
                               "--ms", "24", "--seeds", "0,1",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "records.csv").exists()
    res2 = runner.invoke(main, ["fit", "--records", str(out / "records.csv"),
                                "--x-axis", "beta", "--out", str(out)])
    assert res2.exit_code == 0, res2.output
    assert (out / "fit.txt").exists()
    assert "exponent" in res2.output
    # four axis values: every window the fit may choose holds all 8 cells
    fit = dict(line.split(" ", 1) for line in (out / "fit.txt").read_text().splitlines())
    records = stio.read_records_csv(str(out / "records.csv"))
    assert fit["cells_in_window"] == "8"
    assert fit["cells_optimal"] == str(sum(r.status == "optimal" for r in records))
    # each record carries its solve's radius, at which an optimal cell is feasible
    assert all(r.eta >= r.beta for r in records)
    assert all(r.residual <= r.eta * (1 + 1e-6) + 1e-12
               for r in records if r.status == "optimal")


def test_config_file_merging(tmp_path, runner):
    cfg = {"wavelet_order": 1, "jmax": 2, "out_dir": str(tmp_path)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["atlas", "build", "--config", str(cfg_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "atlas_order1_j2.bin").exists()


def test_config_file_rejects_keys_it_does_not_read(tmp_path, runner):
    # a file key the command does not read is a usage error, as such a flag is
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"m": 64, "betas": [0.1], "jmx": 5}))
    res = runner.invoke(main, ["atlas", "build", "--jmax", "1", "--config", str(cfg_path),
                               "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "betas, jmx, m" in res.output
    assert not list(tmp_path.glob("*.bin"))


def test_config_file_phantom_keys(tmp_path, runner):
    # phantom and a come from the file only; reconstruct and sweep read them
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"phantom": "tail", "a": 0.5}))
    res = runner.invoke(main, ["reconstruct", "--j0", "1", "--jmax", "2", "--m", "16",
                               "--config", str(cfg_path), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert (tmp_path / "reconstruction.pgm").exists()


def test_sweep_config_file_keys(tmp_path, runner):
    # the noise sweep as a config file: every file-only key reaches the
    # ExperimentConfig that a direct run_recovery_sweep call builds
    keys = {"m_rule_p": 0.5, "m_cap": 32, "m_min": 12, "j0_cap": 1, "j0_offset": -2}
    cfg = dict(keys, phantom="tail", a=0.5, betas=[0.25, 0.0625], m_rule="noise_matched",
               m_rule_c0=0.5, j0_rule=True, seeds=[0], max_iters=500, tol_gap=1e-5)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    want = run_recovery_sweep(ExperimentConfig(
        phantom=PhantomSpec("tail", a=0.5), betas=(0.25, 0.0625), m_rule="noise_matched",
        m_rule_c0=0.5, j0_rule=True, seeds=(0,),
        solver=SolveConfig(max_iters=500, tol_gap=1e-5), **keys))
    got = stio.read_records_csv(str(tmp_path / "records.csv"))
    assert [r.j0 for r in got] == [0, 1]      # the j0 rule ran, under its cap
    assert [replace(r, wall_time=0.0) for r in got] == [replace(r, wall_time=0.0)
                                                        for r in want]


def test_exact_recovery_reports_its_count(runner):
    res = runner.invoke(main, ["exact-recovery", "--s", "3", "--j0", "1", "--pilot-j0", "1",
                               "--n-seeds", "2"])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert lines[0].startswith("calibrated C0 = ")
    assert len(lines) == 4 and lines[-1] in ("0/2 exact recoveries", "1/2 exact recoveries",
                                             "2/2 exact recoveries")


def test_sweep_rerun_identical(tmp_path, runner):
    args = ["sweep", "--j0", "1", "--jmax", "2", "--s", "2",
            "--betas", "0.1", "--ms", "16", "--seeds", "0"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = runner.invoke(main, args + ["--out", str(out1)])
    r2 = runner.invoke(main, args + ["--out", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    rows1 = open(out1 / "records.csv").read().splitlines()
    rows2 = open(out2 / "records.csv").read().splitlines()
    for a, b in zip(rows1, rows2):
        ca, cb = a.split(","), b.split(",")
        ca.pop(7), cb.pop(7)  # wall time
        assert ca == cb
