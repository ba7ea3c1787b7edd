from dataclasses import replace

import numpy as np

import sparsetomo as st
from sparsetomo import io as stio
from sparsetomo.experiments import SweepRecord
from sparsetomo.models import _CHUNK


def test_image_binary_round_trip(tmp_path, haar_atlas_j2):
    rng = np.random.default_rng(0)
    img = rng.standard_normal((haar_atlas_j2.grid.npts,) * 2)
    path = str(tmp_path / "img.bin")
    stio.write_image_binary(path, img, haar_atlas_j2.grid)
    back = stio.read_image_binary(path)
    assert np.array_equal(back, img)
    hdr = open(path + ".hdr").read()
    assert "float64-le" in hdr and "grid_h" in hdr


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((17, 23))
    path = str(tmp_path / "img.pgm")
    stio.write_pgm(path, img)
    back = stio.read_pgm(path)
    assert back.shape == img.shape
    assert back.dtype == np.uint8
    # 8-bit preview preserves ordering up to quantization
    assert abs(int(back.max()) - 255) == 0


def test_pgm_constant_image(tmp_path):
    path = str(tmp_path / "c.pgm")
    stio.write_pgm(path, np.ones((4, 4)))
    assert (stio.read_pgm(path) == 0).all()


def test_atlas_export_import(tmp_path, haar_atlas_j2):
    a = haar_atlas_j2
    path = str(tmp_path / "atlas.bin")
    stio.write_atlas(path, a)
    meta, atoms = stio.read_atlas_patches(path)
    assert int(meta["atoms"]) == len(a)
    assert float(meta["grid_h"]) == a.grid.h
    for (idx, patch, ix, iy), ref_idx in zip(atoms, a.gamma):
        assert idx == ref_idx
        ref_patch, ri, rj = a.atom_patch(idx)
        assert ix == ri and iy == rj
        assert np.array_equal(patch, ref_patch)


def test_system_dir_round_trip(tmp_path, haar_atlas_j2, radon_j2):
    # m spans two whole chunks of samples and a partial one; the directory
    # holds what rebuilds A, not A
    w = st.truncation_positions(haar_atlas_j2, 1)
    m = 2 * _CHUNK + 3
    samples = st.draw_samples(radon_j2, m, 0)
    system = st.assemble_system(radon_j2, w, samples, beta=0.1, noise_seed=1)
    out = tmp_path / "sys"
    stio.write_system_dir(str(out), system, meta={"seed": 0})
    assert not (out / "A.bin").exists()
    assert np.array_equal(np.fromfile(out / "y.bin", dtype="<f8"), system.y)
    meta = dict(line.split(" ", 1) for line in (out / "meta.txt").read_text().splitlines())
    assert meta == {"m": str(m), "block_dim": str(system.block_dim), "n_window": "64",
                    "noise_bound": "0.1", "tail_residual": repr(system.tail_residual),
                    "seed": "0"}
    lines = (out / "samples.csv").read_text().splitlines()
    assert lines[0] == "k,t,q_weight"
    assert len(lines) == m + 1


def test_records_csv_round_trip(tmp_path):
    recs = [SweepRecord(beta=0.25, m=16, j0=2, s=5, err_l2=0.125,
                        err_img=0.1251, residual=0.3, wall_time=1.5,
                        seed=7, status="optimal", eta=0.3)]
    path = str(tmp_path / "records.csv")
    stio.write_records_csv(path, recs)
    back = stio.read_records_csv(path)
    assert back == recs


def test_records_csv_telemetry_round_trip(tmp_path):
    recs = [SweepRecord(beta=0.25, m=16, j0=2, s=5, err_l2=0.125, err_img=0.1251,
                        residual=0.3, wall_time=1.5, seed=7, status="optimal",
                        iterations=850, gap=2.75e-9, eta=0.3125),
            SweepRecord(beta=0.5, m=16, j0=2, s=5, err_l2=0.25, err_img=0.2501,
                        residual=0.6, wall_time=1.5, seed=8, status="max_iters",
                        iterations=6000, gap=float("inf"), eta=0.5625)]
    path = str(tmp_path / "records.csv")
    stio.write_records_csv(path, recs)
    header = open(path).read().splitlines()[0].split(",")
    # the new columns come after status, so the old column indices hold
    assert header[:10] == ["beta", "m", "j0", "s", "err_l2", "err_img", "residual",
                           "wall_time", "seed", "status"]
    assert header[10:] == ["iterations", "gap", "eta"]
    assert stio.read_records_csv(path) == recs


def test_records_csv_eta_round_trip(tmp_path):
    # eta is the solve's radius, so residual <= eta (1 + tol_feas) can be
    # checked from the file alone; an unknown radius round-trips as NaN
    recs = [SweepRecord(beta=2.0 ** -6, m=384, j0=3, s=0, err_l2=0.02, err_img=0.02,
                        residual=0.0312500002, wall_time=1.25, seed=0, status="optimal",
                        iterations=200, gap=3.5e-7, eta=0.0312500001234567),
            SweepRecord(beta=0.25, m=16, j0=2, s=5, err_l2=0.125, err_img=0.1251,
                        residual=0.3, wall_time=1.5, seed=7, status="infeasible")]
    path = str(tmp_path / "records.csv")
    stio.write_records_csv(path, recs)
    first, second = stio.read_records_csv(path)
    assert first == recs[0]
    assert np.isnan(second.eta)
    assert replace(second, eta=0.0) == replace(recs[1], eta=0.0)


def test_records_csv_reads_file_without_eta(tmp_path):
    # a file with the iterations and gap columns but no eta reads eta as NaN
    path = tmp_path / "records.csv"
    path.write_text("beta,m,j0,s,err_l2,err_img,residual,wall_time,seed,status,iterations,gap\r\n"
                    "0.25,16,2,5,0.125,0.1251,0.3,1.5,7,optimal,850,2.75e-09\r\n")
    (rec,) = stio.read_records_csv(str(path))
    assert np.isnan(rec.eta)
    assert replace(rec, eta=0.0) == SweepRecord(
        beta=0.25, m=16, j0=2, s=5, err_l2=0.125, err_img=0.1251, residual=0.3,
        wall_time=1.5, seed=7, status="optimal", iterations=850, gap=2.75e-9, eta=0.0)


def test_records_csv_reads_old_header(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("beta,m,j0,s,err_l2,err_img,residual,wall_time,seed,status\r\n"
                    "0.25,16,2,5,0.125,0.1251,0.3,1.5,7,optimal\r\n")
    (rec,) = stio.read_records_csv(str(path))
    assert np.isnan(rec.eta)
    assert replace(rec, eta=0.0) == SweepRecord(
        beta=0.25, m=16, j0=2, s=5, err_l2=0.125, err_img=0.1251, residual=0.3,
        wall_time=1.5, seed=7, status="optimal", eta=0.0)
    assert rec.iterations == 0 and rec.gap == float("inf")


def test_fit_report(tmp_path):
    path = str(tmp_path / "fit.txt")
    stio.write_fit_report(path, 0.5, -1.0, 0.95, [], window=(0.25, 0.125),
                          flagged=False, x_axis="beta")
    text = open(path).read()
    assert "exponent 0.5" in text
    assert "window 0.25 0.125" in text
    assert "flagged False" in text


def test_fit_report_counts_cells(tmp_path):
    # the fit's cells are the records inside its window (all of them without
    # one); cells_optimal counts those whose solve ended optimal
    def rec(beta, m, status):
        return SweepRecord(beta=beta, m=m, j0=2, s=5, err_l2=0.1, err_img=0.1, residual=0.0,
                           wall_time=0.0, seed=0, status=status)

    recs = [rec(0.25, 16, "optimal"), rec(0.25, 32, "max_iters"), rec(0.125, 16, "optimal"),
            rec(0.125, 32, "optimal"), rec(0.0625, 16, "infeasible"), rec(0.5, 32, "optimal")]
    path = tmp_path / "fit.txt"
    for window, x_axis, cells, optimal in (((0.0625, 0.125, 0.25), "beta", 5, 3),
                                           (None, "beta", 6, 4), ((16,), "m", 3, 2)):
        stio.write_fit_report(str(path), 0.5, -1.0, 0.95, recs, window=window,
                              flagged=True, x_axis=x_axis)
        lines = path.read_text().splitlines()
        assert f"cells_in_window {cells}" in lines
        assert f"cells_optimal {optimal}" in lines
        assert lines[-1] == "flagged True"
