import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from sparsetomo import io as stio
from sparsetomo.cli import main
from sparsetomo.experiments import ExperimentConfig, build_model, run_recovery_sweep
from sparsetomo.models import assemble_system, draw_samples
from sparsetomo.phantoms import PhantomSpec, make_phantom
from sparsetomo.solve import SolveConfig
from sparsetomo.wavelets import truncation_positions


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


def test_certify_legendre_certificate_ignores_j0(tmp_path, runner):
    # Legendre has no scales: its window is the whole dictionary at every
    # --j0, and so is its certificate, sample rules included
    text = []
    for j0 in ("1", "4"):
        res = runner.invoke(main, ["certify", "--model", "legendre", "--j0", j0,
                                   "--out", str(tmp_path / j0)])
        assert res.exit_code == 0, res.output
        text.append((tmp_path / j0 / "certificate.txt").read_text())
    assert text[0] == text[1]


def test_certify_legendre_takes_any_window_flags(tmp_path, runner):
    # j0 <= j_max is a check on window scales, which Legendre does not have:
    # --j0 4 --jmax 3 writes the defaults' certificate
    text = []
    for flags in ([], ["--j0", "4", "--jmax", "3"]):
        out = tmp_path / str(len(flags))
        res = runner.invoke(main, ["certify", "--model", "legendre", *flags, "--out", str(out)])
        assert res.exit_code == 0, res.output
        text.append((out / "certificate.txt").read_text())
    assert text[0] == text[1]


@pytest.mark.parametrize("args", [["certify", "--m", "64"], ["atlas", "build", "--beta", "0.1"],
                                  ["reconstruct", "--gamma", "0.2"], ["sweep", "--beta", "0.1"]])
def test_command_rejects_flags_it_does_not_read(tmp_path, runner, args):
    # each command declares only the flags it reads: an unread one is a usage error
    res = runner.invoke(main, args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "No such option" in res.output


@pytest.mark.parametrize("args, message", [
    (["certify", "--model", "fanbeam", "--wavelet-order", "2", "--j0", "1", "--jmax", "2"],
     "fan beam takes Haar atoms only"),
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
    (["certify", "--j0", "1", "--jmax", "2", "--gamma", "2"], "gamma must lie in (0, 1)"),
    (["certify", "--j0", "1", "--jmax", "2", "--zeta", "-1"], "zeta must lie in [0, 1]"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--m", "8", "--zeta", "2"],
     "zeta must lie in [0, 1]"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--m", "8", "--beta", "-0.1"],
     "beta must be >= 0"),
    (["sweep", "--j0", "1", "--jmax", "2", "--ms", "8", "--zeta", "3"],
     "zeta must lie in [0, 1]"),
    (["sweep", "--j0", "1", "--jmax", "2", "--ms", "8", "--seeds", ""],
     "not a comma-separated list of ints: ''"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--s", "-3"], "s must be >= 0"),
    (["sweep", "--j0", "1", "--jmax", "2", "--s", "-2", "--ms", "8"], "s must be >= 0"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--s", "2", "--m", "8", "--beta", "nan"],
     "beta must be finite"),
    (["reconstruct", "--j0", "1", "--jmax", "2", "--s", "2", "--m", "8", "--beta", "inf"],
     "beta must be finite"),
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
    assert "status optimal" in res.output
    # the system directory records what rebuilds A, not A
    sysdir = tmp_path / "system"
    assert not (sysdir / "A.bin").exists()
    meta = dict(line.split(" ", 1) for line in (sysdir / "meta.txt").read_text().splitlines())
    with open(sysdir / "samples.csv", newline="") as fh:
        samples = np.array([float(row["t"]) for row in csv.DictReader(fh)])
    model = build_model(meta["model"], int(meta["wavelet_order"]), int(meta["jmax"]))
    rebuilt = assemble_system(model, truncation_positions(model.atlas, int(meta["j0"])),
                              samples)
    # the run's own system, from the same inputs
    run_model = build_model("radon", 1, 2)
    window = truncation_positions(run_model.atlas, 1)
    _, x_full, _ = make_phantom(run_model.atlas, PhantomSpec("sparse", s=2, seed=3), 1)
    system = assemble_system(run_model, window, draw_samples(run_model, 24, seed=3),
                             x_full=x_full, beta=0.0, noise_seed=4)
    assert np.array_equal(rebuilt.matrix, system.matrix)
    assert np.array_equal(rebuilt.q_weights, system.q_weights)
    assert np.array_equal(np.fromfile(sysdir / "y.bin", dtype="<f8"), system.y)


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


@pytest.mark.parametrize("flag", ["--windowed", "--no-windowed"])
def test_fit_rejects_records_with_too_few_axis_values(tmp_path, runner, flag):
    # a records file with two distinct betas cannot be fitted: a usage error
    # before --out exists, not a traceback
    records = [stio.SweepRecord(beta=beta, m=16, j0=1, s=2, err_l2=beta, err_img=beta,
                                residual=0.0, wall_time=0.0, seed=seed, status="optimal")
               for beta in (0.1, 0.05) for seed in (0, 1)]
    stio.write_records_csv(str(tmp_path / "few.csv"), records)
    res = runner.invoke(main, ["fit", "--records", str(tmp_path / "few.csv"), flag,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "distinct axis values" in res.output
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("caps", [{"m_cap": 0}, {"m_min": 64, "m_cap": 8}])
def test_sweep_config_sample_caps_out_of_range(tmp_path, runner, caps):
    # the noise-matched rule clips m to [m_min, m_cap]: a cap below 1 would
    # reach draw_samples, and one below m_min would override it, so both are
    # usage errors before --out exists
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(caps, m_rule="noise_matched", betas=[0.25])))
    res = runner.invoke(main, ["sweep", "--config", str(cfg_path), "--j0", "1", "--jmax", "2",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 2, res.output
    assert "must satisfy 1 <= m_min <= m_cap" in res.output
    assert not (tmp_path / "out").exists()


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
