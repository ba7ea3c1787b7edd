"""On-disk formats: flat little-endian float64 binaries with plain-text
headers, 8-bit PGM previews, RFC-4180 records CSV, solver trace CSV,
sampled system directories (the samples, y and the keys that rebuild A, not
A itself), and certificate reports.

Every writer formats floats with repr (shortest round-trip), so reruns under
the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from .wavelets import AtomIndex, DictionaryAtlas, GridSpec


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# ---------------------------------------------------------------------------
# images


def write_image_binary(path: str, image: np.ndarray, grid: GridSpec | None = None):
    """Full-precision image: row-major float64 little-endian, plus a text
    header next to it describing the grid."""
    image = np.asarray(image, float)
    image.astype("<f8").tofile(path)
    with open(path + ".hdr", "w") as fh:
        fh.write(f"shape {image.shape[0]} {image.shape[1]}\n")
        fh.write("dtype float64-le row-major\n")
        if grid is not None:
            fh.write(f"grid_x0 {_fmt(grid.x0)}\n")
            fh.write(f"grid_h {_fmt(grid.h)}\n")
            fh.write(f"grid_npts {grid.npts}\n")


def read_image_binary(path: str) -> np.ndarray:
    with open(path + ".hdr") as fh:
        lines = dict(line.split(None, 1) for line in fh.read().splitlines())
    ny, nx = (int(v) for v in lines["shape"].split())
    return np.fromfile(path, dtype="<f8").reshape(ny, nx)


def write_pgm(path: str, image: np.ndarray):
    """8-bit preview, linearly rescaled to the image's own range."""
    image = np.asarray(image, float)
    lo, hi = float(image.min()), float(image.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    data = np.clip(np.round((image - lo) * scale), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError("only binary PGM (P5) supported")
        dims = fh.readline().split()
        nx, ny = int(dims[0]), int(dims[1])
        fh.readline()  # maxval
        return np.frombuffer(fh.read(nx * ny), dtype=np.uint8).reshape(ny, nx)


# ---------------------------------------------------------------------------
# atlas


def write_atlas(path: str, atlas: DictionaryAtlas):
    """Atom patches as one flat float64-le binary, with a text header listing
    the grid, the filter order, and the atom index table with patch offsets."""
    patches = []
    offset = 0
    rows = []
    for idx in atlas.gamma:
        patch, i1, i2 = atlas.atom_patch(idx)
        rows.append((idx.scale, idx.n1, idx.n2, idx.orientation,
                     i1, i2, patch.shape[1], patch.shape[0], offset))
        patches.append(patch.ravel())
        offset += patch.size
    np.concatenate(patches).astype("<f8").tofile(path)
    with open(path + ".hdr", "w") as fh:
        fh.write(f"order {atlas.filter.regularity_order}\n")
        fh.write(f"j_max {atlas.j_max}\n")
        fh.write(f"grid_x0 {_fmt(atlas.grid.x0)}\n")
        fh.write(f"grid_h {_fmt(atlas.grid.h)}\n")
        fh.write(f"grid_npts {atlas.grid.npts}\n")
        fh.write(f"atoms {len(atlas.gamma)}\n")
        fh.write("columns scale n1 n2 orientation ix iy nx ny offset\n")
        for r in rows:
            fh.write(" ".join(str(v) for v in r) + "\n")


def read_atlas_header(path: str):
    """Parse the atlas header into (meta dict, atom table rows)."""
    meta = {}
    table = []
    with open(path + ".hdr") as fh:
        lines = fh.read().splitlines()
    in_table = False
    for line in lines:
        if line.startswith("columns "):
            in_table = True
            continue
        if in_table:
            table.append(tuple(int(v) for v in line.split()))
        else:
            k, v = line.split(None, 1)
            meta[k] = v
    return meta, table


def read_atlas_patches(path: str):
    """(meta, list of (AtomIndex, patch, ix, iy)) from an exported atlas."""
    meta, table = read_atlas_header(path)
    flat = np.fromfile(path, dtype="<f8")
    out = []
    for scale, n1, n2, orient, ix, iy, nx, ny, off in table:
        patch = flat[off:off + nx * ny].reshape(ny, nx)
        out.append((AtomIndex(scale, n1, n2, orient), patch, ix, iy))
    return meta, out


# ---------------------------------------------------------------------------
# sampled systems


def write_system_dir(path: str, system, meta: dict | None = None):
    """samples.csv, y.bin and meta.txt in one directory, and not A: the
    samples and reconstruct's meta keys model, wavelet_order, jmax and j0
    rebuild it through build_model(model, wavelet_order, jmax),
    truncation_positions(atlas, j0) and assemble_system, at build_model's
    default s_step, which no reconstruct flag or config key sets.  y.bin
    holds the noise and the out-of-window data, which the samples do not."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "samples.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "t", "q_weight"])
        for k, (t, q) in enumerate(zip(system.samples, system.q_weights)):
            w.writerow([k, _fmt(t), _fmt(q)])
    system.y.astype("<f8").tofile(os.path.join(path, "y.bin"))
    with open(os.path.join(path, "meta.txt"), "w") as fh:
        fh.write(f"m {system.m}\n")
        fh.write(f"block_dim {system.block_dim}\n")
        fh.write(f"n_window {len(system.positions)}\n")
        fh.write(f"noise_bound {_fmt(system.noise_bound)}\n")
        fh.write(f"tail_residual {_fmt(system.tail_residual)}\n")
        for k, v in (meta or {}).items():
            fh.write(f"{k} {_fmt(v)}\n")


# ---------------------------------------------------------------------------
# records and reports


def write_trace_csv(path: str, trace):
    """Solver trace: one (iteration, residual, objective, gap) row per check
    of the best feasible iterate; header only when none was feasible."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "residual", "objective", "gap"])
        w.writerows(trace)


@dataclass
class SweepRecord:
    """One sweep cell; its fields, in order, are the columns of records.csv."""

    beta: float
    m: int
    j0: int
    s: int
    err_l2: float
    err_img: float
    residual: float
    wall_time: float
    seed: int
    status: str
    iterations: int = 0           # solver iterations; 0 when none ran
    gap: float = float("inf")     # the reported iterate's duality gap
    eta: float = float("nan")     # the solve's radius, beta + tail_residual


def write_records_csv(path: str, records):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    names = [f.name for f in fields(SweepRecord)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        w.writerow(names)
        for r in records:
            w.writerow([_fmt(getattr(r, f)) for f in names])


def read_records_csv(path: str):
    """Records of a records.csv, each column read by its field's type; a
    column the file lacks (iterations, gap and eta in files written before
    they existed) reads as the field's default."""
    conv = {"int": int, "float": float, "str": str}
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            values = {f.name: conv[f.type](row[f.name])
                      for f in fields(SweepRecord) if row.get(f.name) is not None}
            out.append(SweepRecord(**values))
    return out


def write_fit_report(path: str, exponent: float, intercept: float, r2: float, records,
                     window=None, flagged: bool = False, x_axis: str = "beta"):
    """fit.txt (key-value).  cells_in_window counts the records the fit read,
    those whose axis value lies in the window (all of them without one), and
    cells_optimal those of them whose solve ended `optimal`."""
    cells = [r for r in records if window is None or getattr(r, x_axis) in window]
    with open(path, "w") as fh:
        fh.write(f"x_axis {x_axis}\n")
        fh.write(f"exponent {_fmt(exponent)}\n")
        fh.write(f"intercept {_fmt(intercept)}\n")
        fh.write(f"r_squared {_fmt(r2)}\n")
        if window is not None:
            fh.write("window " + " ".join(_fmt(v) for v in window) + "\n")
        fh.write(f"cells_in_window {len(cells)}\n")
        fh.write(f"cells_optimal {sum(r.status == 'optimal' for r in cells)}\n")
        fh.write(f"flagged {flagged}\n")


def write_certificate_report(out_dir: str, cert, delta_rows=None, complexity=None):
    """certificate.txt (key-value) plus coherence.csv with per-scale maxima."""
    os.makedirs(out_dir, exist_ok=True)
    b, c_hat, C_hat = cert.quasi_diag
    with open(os.path.join(out_dir, "certificate.txt"), "w") as fh:
        fh.write(f"window_size {len(cert.positions)}\n")
        fh.write(f"n_quad {cert.n_quad}\n")
        fh.write(f"sigma_min {_fmt(cert.sigma_min)}\n")
        fh.write(f"sigma_max {_fmt(cert.sigma_max)}\n")
        fh.write(f"inv_norm {_fmt(cert.inv_norm)}\n")
        fh.write(f"coherence_B {_fmt(cert.coherence_B)}\n")
        fh.write(f"b {_fmt(b)}\n")
        fh.write(f"b_fit {_fmt(cert.b_fit)}\n")
        fh.write(f"c_hat {_fmt(c_hat)}\n")
        fh.write(f"C_hat {_fmt(C_hat)}\n")
        fh.write(f"relative_coherence {_fmt(cert.relative_coherence)}\n")
        fh.write(f"fbi_flag {cert.fbi_flag}\n")
        if cert.sigma_min_shift is not None:
            fh.write(f"sigma_min_shift {_fmt(cert.sigma_min_shift)}\n")
        if delta_rows:
            for lam, m, d in delta_rows:
                fh.write(f"delta_star_lambda{_fmt(lam)}_m{m} {_fmt(d)}\n")
        if complexity:
            for k, v in complexity.items():
                fh.write(f"sample_complexity_{k} {v}\n")
    with open(os.path.join(out_dir, "coherence.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scale", "max_norm", "d_measured"])
        for j, (mx, d) in enumerate(zip(cert.scale_coherence_max, cert.d_exponents)):
            w.writerow([j, _fmt(mx), _fmt(d)])
