import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sparsetomo as st
from sparsetomo import models
from sparsetomo.experiments import build_model
from sparsetomo.models import _CHUNK, GeometryError, _nonzero_core, _run_cells
from sparsetomo.wavelets import GridSpec, dilation

from oracles import (atom_norms, density_integral, nonzero_core, radon_image, sampled_normal,
                     square_group, support_box, uniform_bound_probe)


def brute_radon_atom(atlas, idx, theta, s_grid, step):
    """Independent oracle: rotated-line quadrature of the separable atom."""
    d = dilation(idx.scale)
    fx, fy, _, _ = atlas.atom_profiles(idx)
    h = atlas.grid.h
    (x_lo, _), (y_lo, _) = support_box(atlas, idx)
    w = atlas.filter.support_length / d
    c, s_ = np.cos(theta), np.sin(theta)
    xc, yc = x_lo + w / 2, y_lo + w / 2
    t0 = -xc * s_ + yc * c
    ts = np.arange(t0 - w, t0 + w, step)
    out = np.zeros(len(s_grid))
    for i, s0 in enumerate(s_grid):
        xs = s0 * c - ts * s_ - x_lo
        ys = s0 * s_ + ts * c - y_lo
        vx = np.interp(xs, np.arange(len(fx)) * h, fx, left=0, right=0)
        vy = np.interp(ys, np.arange(len(fy)) * h, fy, left=0, right=0)
        out[i] = (vx * vy).sum() * step
    return out


def brute_radon_rows(model, positions, theta):
    """Reference oracle: dense Radon rows, every offset of every atom
    interpolated, with the arithmetic the run kernel must reproduce bit for
    bit."""
    positions = np.asarray(positions, dtype=int)
    out = np.zeros((len(positions), model.block_dim))
    c, s = np.cos(theta), np.sin(theta)
    fine = model.s_step / 2.0
    n1, n2 = model.atlas.n1[positions], model.atlas.n2[positions]
    for scale, orient, sel in model._groups(positions):
        (grid,), ((base,),) = model._scale_base(scale, [orient], [theta], fine)
        shifts = (n1[sel] * c + n2[sel] * s) / dilation(scale)
        P = model.s_grid[None, :] - shifts[:, None]
        out[sel] = np.interp(P, grid, base, left=0.0, right=0.0)
    return out


def _clip_chord(px, py, ux, uy, x0, x1, y0, y1):
    """Liang-Barsky: length of the line (px, py) + t (ux, uy), t real, inside
    the cell [x0, x1) x [y0, y1).  A line parallel to a side lies inside
    when its coordinate is in the half-open range, as the atoms take it."""
    t0, t1 = -math.inf, math.inf
    for p, q, closed in ((-ux, px - x0, True), (ux, x1 - px, False),
                         (-uy, py - y0, True), (uy, y1 - py, False)):
        if p == 0.0:
            if q < 0.0 or (q == 0.0 and not closed):
                return 0.0
        elif p < 0.0:
            t0 = max(t0, q / p)
        else:
            t1 = min(t1, q / p)
    return max(t1 - t0, 0.0)


def chord_fan_rows(model, positions, theta):
    """Independent exact oracle for Haar atoms: per atom, every ray whose
    angle lies between the angles of the box corners seen from the source is
    clipped against each constant sub-rectangle, and value x chord length is
    summed."""
    atlas = model.atlas
    out = np.zeros((len(positions), model.block_dim))
    sx, sy = model.rho * math.cos(theta), model.rho * math.sin(theta)
    for row_i, pos in enumerate(positions):
        a = atlas.gamma[pos]
        fx, fy, _, _ = atlas.atom_profiles(a)
        box = support_box(atlas, a)
        cells = []
        for (lo, hi), f, kind in zip(box, (fx, fy), atlas.profile_kinds(a.orientation)):
            mid = 0.5 * (lo + hi)
            cells.append([(lo, hi, f[0])] if kind == "c"
                         else [(lo, mid, f[0]), (mid, hi, f[(len(f) - 1) // 2])])
        (bx0, bx1), (by0, by1) = box
        corner = [(math.atan2(cy - sy, cx - sx) - theta) % (2 * math.pi) - math.pi
                  for cx in (bx0, bx1) for cy in (by0, by1)]
        for k, al in enumerate(model.alpha_grid):
            if not min(corner) - 1e-9 <= al <= max(corner) + 1e-9:
                continue
            ux, uy = math.cos(theta + al), math.sin(theta + al)
            out[row_i, k] = sum(vx * vy * _clip_chord(sx, sy, ux, uy, x0, x1, y0, y1)
                                for x0, x1, vx in cells[0] for y0, y1, vy in cells[1])
    return out


# ---------------------------------------------------------------------------
# parallel beam


def test_radon_image_chord_oracle():
    h = 2.0 ** -10
    grid = GridSpec(x0=-1.05, h=h, npts=int(round(2.1 / h)) + 1)
    c = grid.coords
    X, Y = np.meshgrid(c, c)
    disk = (X ** 2 + Y ** 2 < 1.0).astype(float)
    ds = 2.0 ** -6
    s_grid = np.arange(-1.1, 1.1 + ds, ds)
    true = np.where(np.abs(s_grid) <= 1.0,
                    2.0 * np.sqrt(np.maximum(1.0 - s_grid ** 2, 0.0)), 0.0)
    for th in (0.0, 0.3, 1.1):
        row = radon_image(disk, grid, th, s_grid)
        assert np.abs(row - true).max() <= 3 * ds


def test_radon_image_radial_invariance(haar_atlas_j3, radon_j3):
    a, mo = haar_atlas_j3, radon_j3
    c = a.grid.coords
    X, Y = np.meshgrid(c, c)
    img = np.exp(-4.0 * (X ** 2 + Y ** 2)) * (X ** 2 + Y ** 2 < 1.0)
    rows = [radon_image(img, a.grid, 2 * np.pi * k / 8, mo.s_grid) for k in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            d = np.sqrt(np.sum((rows[i] - rows[j]) ** 2) * mo.s_step)
            assert d <= 3 * mo.s_step


def test_radon_atom_matches_line_quadrature(haar_atlas_j3):
    # measurement step chosen to resolve the compared scales
    a = haar_atlas_j3
    mo = st.RadonModel(a, s_step=1.0 / 32)
    rng = np.random.default_rng(2)
    resolved = np.flatnonzero(a.scales <= 2)
    for pos in rng.choice(resolved, 6, replace=False):
        idx = a.gamma[pos]
        for th in (0.31, 2.1, 4.4):
            mine = mo.rows([pos], th)[0]
            brute = brute_radon_atom(a, idx, th, mo.s_grid, a.grid.h / 2)
            assert np.abs(mine - brute).max() <= 3 * mo.s_step


def test_radon_atom_zero_outside_projection(haar_atlas_j3, radon_j3):
    row = radon_j3.rows([0], 1.0)[0]
    assert np.isfinite(row).all()
    assert np.abs(row[0]) == 0.0 and np.abs(row[-1]) == 0.0


def test_radon_coherence_per_scale_bound():
    # measurement norms decay with the atom dilation, anchored at scale 0
    a = st.build_atlas(st.build_filter(1), 5)
    mo = st.RadonModel(a)
    pos = np.arange(len(a))
    mx = np.zeros(6)
    for k in range(16):
        th = 2 * np.pi * k / 16 + 0.0131
        nr = atom_norms(mo, pos, th)
        for j in range(6):
            mx[j] = max(mx[j], nr[a.scales == j].max())
    B = mx[0] * np.sqrt(dilation(0))
    for j in range(6):
        assert mx[j] <= 1.05 * B / np.sqrt(dilation(j))


def test_radon_rows_shuffled_positions_with_repeats(haar_atlas_j3, radon_j3):
    # rows are grouped by (scale, orientation) internally; the grouping must
    # not depend on the order of the positions or on repeats among them
    rng = np.random.default_rng(1)
    base = rng.choice(len(haar_atlas_j3), 120, replace=False)
    positions = rng.permutation(np.concatenate([base, base[:30]]))
    uniq, inv = np.unique(positions, return_inverse=True)
    for th in (0.0, 0.9, 2.6, 4.4):
        assert np.array_equal(radon_j3.rows(positions, th), radon_j3.rows(uniq, th)[inv])
        assert np.array_equal(atom_norms(radon_j3, positions, th),
                              atom_norms(radon_j3, uniq, th)[inv])


def test_radon_rows_match_dense_oracle():
    # the run kernel interpolates only inside each atom's run of offsets and
    # must agree bit for bit with interpolating every offset
    model = build_model("radon", order=1, j_max=3)
    n = len(model.atlas)
    rng = np.random.default_rng(3)
    base = rng.choice(n, 200, replace=False)
    cases = [np.arange(n), st.truncation_positions(model.atlas, 2),
             rng.permutation(np.concatenate([base, base[:50]])), np.array([int(base[0])])]
    angles = [0.0, np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2]
    angles += list(np.random.default_rng(11).uniform(0.0, 2 * np.pi, 8))
    for positions in cases:
        for th in angles:
            brute = brute_radon_rows(model, positions, th)
            assert model.rows(positions, th).tobytes() == brute.tobytes()


def _kernel_angles():
    """Axis and diagonal angles, repeats and random angles: 2 * _CHUNK + 5
    of them."""
    angles = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4,
              7 * np.pi / 4, 0.0, np.pi / 2, np.pi]
    rest = np.random.default_rng(12).uniform(0.0, 2 * np.pi, 2 * _CHUNK + 5 - len(angles) - 3)
    return np.r_[angles, rest, rest[:3]]


def test_radon_group_profiles_batch_matches_single():
    # a many-angle _scale_base call over a scale's orientations pads its
    # rows; each row of each orientation's profile is the one-angle,
    # one-orientation call's bit for bit, whose grid is the one np.arange
    # fills, and the padding of the profile reads 0
    angles = _kernel_angles()
    for order in (1, 2, 3):
        model = build_model("radon", order=order, j_max=3)
        fine = model.s_step / 2.0
        groups = list(model._groups(np.arange(len(model.atlas))))
        for scale in sorted({g[0] for g in groups}):
            orients = [o for j, o, _ in groups if j == scale]
            grid, bases = model._scale_base(scale, orients, angles, fine)
            for orient, base in zip(orients, bases):
                for k, th in enumerate(angles):
                    (g,), ((b,),) = model._scale_base(scale, [orient], [th], fine)
                    assert g.tobytes() == np.arange(g[0], g[-1] + fine / 2, fine).tobytes()
                    assert grid[k, :len(g)].tobytes() == g.tobytes()
                    assert base[k, :len(b)].tobytes() == b.tobytes()
                    assert not base[k, len(b):].any()


def per_orientation_runs(model, positions, thetas):
    """Reference oracle: the Radon runs built one (scale, orientation) group
    at a time, each group on its own profile and its own run geometry, each
    run cut to its nonzero span, copied from before a scale's groups shared
    one geometry."""
    thetas = np.atleast_1d(np.asarray(thetas, float))
    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    fine = model.s_step / 2.0
    sg = model.s_grid
    top, zero = len(sg) - 1, len(sg) // 2
    n1, n2 = model.atlas.n1[positions], model.atlas.n2[positions]
    for scale, orient, sel in model._groups(positions):
        grid, (base,) = model._scale_base(scale, [orient], thetas, fine)
        nz = base != 0.0
        live = np.flatnonzero(nz.any(axis=1))
        nz = nz[live]
        glo = grid[live, nz.argmax(axis=1) - 1][:, None]
        ghi = grid[live, nz.shape[1] - nz[:, ::-1].argmax(axis=1)][:, None]
        shifts = (n1[sel] * c[live] + n2[sel] * s[live]) / dilation(scale)
        i = np.floor((shifts + glo) / model.s_step).astype(int) + zero
        j = np.ceil((shifts + ghi) / model.s_step).astype(int) + zero - 1
        for _ in range(2):
            i += sg.take(i, mode="clip") - shifts <= glo
            j += sg.take(j, mode="clip") - shifts < ghi
        first = np.maximum(i, 0).ravel()
        cnt = np.maximum(np.minimum(j, top + 1).ravel() - first, 0)
        pair, col = _run_cells(first, cnt)
        P = sg[col] - shifts.ravel()[pair]
        val = np.empty(len(P))
        ends = np.cumsum(np.append(0, cnt.reshape(len(live), len(sel)).sum(axis=1)))
        for a, k in enumerate(live):
            cut = slice(ends[a], ends[a + 1])
            val[cut] = np.interp(P[cut], grid[k], base[k], left=0.0, right=0.0)
        angle, atom = np.repeat(live, np.diff(ends)), np.repeat(np.tile(sel, len(live)), cnt)
        keep = nonzero_core(pair, cnt, val)
        if keep is not None:
            angle, atom, col, val = angle[keep], atom[keep], col[keep], val[keep]
        yield angle, atom, col, val


@pytest.mark.parametrize("order", [1, 2, 3])
def test_radon_scale_runs_match_per_orientation_oracle(order):
    # a scale's orientation groups share one run geometry over the union of
    # their profiles' nonzero spans: each group's runs, cut to their nonzero
    # spans, and measure's sums over the uncut shared cells equal the runs
    # built one group at a time bit for bit, on windows (whose groups share)
    # and on shuffled positions with repeats (whose groups do not)
    model = build_model("radon", order=order, j_max=3)
    n, bd = len(model.atlas), model.block_dim
    rng = np.random.default_rng(8)
    base = rng.choice(n, 150, replace=False)
    cases = [np.arange(n), st.truncation_positions(model.atlas, 2),
             rng.permutation(np.concatenate([base, base[:40]]))]
    angles = _kernel_angles()
    for positions in cases:
        x = rng.standard_normal(len(positions))
        for k0 in range(0, len(angles), _CHUNK):
            ts = angles[k0:k0 + _CHUNK]
            expect = list(per_orientation_runs(model, positions, ts))
            got = list(model._runs(positions, ts))
            assert len(got) == len(expect)
            for runs, ref in zip(got, expect):
                for a, b in zip(runs, ref):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            blk = np.zeros(len(ts) * bd)
            for k, atom, col, val in expect:
                blk += np.bincount(k * bd + col, weights=val * x[atom], minlength=len(blk))
            assert model.measure(positions, x, ts).tobytes() == blk.tobytes()


@pytest.mark.parametrize("kind", ["radon", "fanbeam", "fourier", "legendre", "synthetic"])
def test_atom_norms_batch_matches_single(kind, synthetic_model):
    # every model takes a vector of parameters, one row per parameter, each
    # the one-parameter call's bit for bit; the batch crosses a chunk boundary
    model = synthetic_model if kind == "synthetic" else build_model(kind, j_max=2)
    positions = np.arange(model.dictionary_size())
    ts = model.sample(_CHUNK + 5, np.random.default_rng(6))
    batch = atom_norms(model, positions, ts)
    assert batch.shape == (len(ts), len(positions))
    for k, t in enumerate(ts):
        assert batch[k].tobytes() == atom_norms(model, positions, t).tobytes()


@settings(max_examples=300, deadline=None)
@given(hs.lists(hs.lists(hs.sampled_from([0.0, 0.0, -0.0, 1.5, -2.0, 5e-324]), max_size=7),
                max_size=12))
def test_nonzero_core_matches_full_scan(runs):
    # cutting only the runs with a zero end gives the mask of the scan of
    # every run, on empty runs, all-zero runs and runs with interior zeros
    cnt = np.array([len(r) for r in runs], dtype=int)
    val = np.array([v for r in runs for v in r], dtype=float)
    owner = np.repeat(np.arange(len(cnt)), cnt)
    got, expect = _nonzero_core(cnt, val), nonzero_core(owner, cnt, val)
    assert (got is None) == (expect is None)
    if got is not None:
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("s_step", [1.0 / 32, None])
def test_radon_runs_cut_to_nonzero_span(s_step):
    # assembled over the whole atlas at angles that cross chunk boundaries,
    # every stored run starts and ends on a nonzero value, and the rows are
    # still the dense oracle's.  With offsets at the atlas grid step,
    # rounding moves a run's end at 3pi/4 by one offset.
    model = st.RadonModel(st.build_atlas(st.build_filter(1), 3), s_step=s_step)
    positions = np.arange(len(model.atlas))
    angles = _kernel_angles()
    system = st.assemble_system(model, positions, angles)
    for c, k0 in enumerate(range(0, system.m, _CHUNK)):
        cnt = system._len[system._order[k0:k0 + _CHUNK]].ravel()
        ends = np.cumsum(cnt)[cnt > 0]
        vals = system._vals[c]
        assert len(vals) == cnt.sum()
        assert np.all(vals[ends - cnt[cnt > 0]] != 0) and np.all(vals[ends - 1] != 0)
    for th in angles:
        assert model.rows(positions, th).tobytes() == brute_radon_rows(model, positions,
                                                                       th).tobytes()


@pytest.mark.parametrize("kind", ["radon", "fanbeam", "fourier", "legendre"])
def test_measure_matches_rows(kind):
    # measure sums the support runs directly (whole rows, one group per
    # parameter, on the models without an atlas): rows(p, t).T @ x up to the
    # order of summation; a vector of parameters gives each one-parameter
    # block bit for bit
    model = build_model(kind, order=1, j_max=3)
    n = model.dictionary_size()
    rng = np.random.default_rng(4)
    base = rng.choice(n, min(150, n // 2), replace=False)
    cases = [np.arange(n), rng.permutation(np.concatenate([base, base[:40]])),
             np.array([int(base[0])])]
    ts = np.array([0.0, np.pi / 2, 2.6, 4.4])
    if kind in ("radon", "fanbeam"):
        cases.insert(1, st.truncation_positions(model.atlas, 2))
    else:
        ts = model.sample(len(ts), rng)
    for positions in cases:
        x = rng.standard_normal(len(positions))
        batch = model.measure(positions, x, ts)
        for k, th in enumerate(ts):
            expect = model.rows(positions, th).T @ x
            got = model.measure(positions, x, th)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
            assert batch[k].tobytes() == got.tobytes()
    assert np.array_equal(model.measure(np.array([], dtype=int), [], 0.9),
                          np.zeros(model.block_dim))


# ---------------------------------------------------------------------------
# fan beam


def test_fanbeam_geometry_guard(haar_atlas_j2):
    # the source sits at rho = 3; Haar atoms reach radius 2.12, order 2
    # atoms 3.54 and order 3 atoms 4.95
    for order in (2, 3):
        with pytest.raises(GeometryError, match="Haar atoms only"):
            st.FanBeamModel(st.build_atlas(st.build_filter(order), 1))
        with pytest.raises(GeometryError, match="Haar atoms only"):
            build_model("fanbeam", order=order, j_max=1)
    fan = st.FanBeamModel(haar_atlas_j2)
    assert fan.rho == 3.0 and haar_atlas_j2.support_radius < fan.d < fan.rho


def test_fanbeam_quarter_turn_equivariance(haar_atlas_j3):
    # at theta + pi/2 the rows are the rows at theta, signed and permuted:
    # the turned source and rays see each turned atom as the unturned ones
    # saw the atom; four turns are the identity
    fan = st.FanBeamModel(haar_atlas_j3)
    positions = np.arange(len(haar_atlas_j3))
    (image, sign), _ = fan.symmetry(positions)
    assert np.array_equal(np.sort(image), positions)
    a, i = haar_atlas_j3, image
    assert np.array_equal(a.n1[i], -a.n2 - 1) and np.array_equal(a.n2[i], a.n1)
    assert np.array_equal(a.orientations[i], np.array([0, 2, 1, 3])[a.orientations])
    turns, signs = positions, np.ones(len(positions))
    for _ in range(4):
        turns, signs = image[turns], signs * sign[turns]
    assert np.array_equal(turns, positions) and (signs == 1.0).all()
    for th in (0.1, 0.7, 1.3, 2.9):
        R, turned = fan.rows(positions, th), fan.rows(positions, th + np.pi / 2)
        assert np.linalg.norm(turned[image] - sign[:, None] * R) <= 1e-12 * np.linalg.norm(R)
    # a window that the turn leaves, and the models without the symmetry
    assert fan.symmetry(np.flatnonzero(a.n1 >= 0)) is None
    assert st.RadonModel(haar_atlas_j3).symmetry(positions) is None


def test_fanbeam_diagonal_reflection_equivariance(haar_atlas_j3):
    # at pi/2 - theta the rows are the rows at theta, permuted, with the rays
    # reversed: the reflection (x, y) -> (y, x) swaps n1 and n2 and the LH
    # and HL orientations and reflects no factor, so every sign is +1;
    # applied twice it is the identity, and D P D = P^-1
    fan = st.FanBeamModel(haar_atlas_j3)
    positions = np.arange(len(haar_atlas_j3))
    (turn, turn_sign), (image, sign) = fan.symmetry(positions)
    a = haar_atlas_j3
    assert np.array_equal(a.n1[image], a.n2) and np.array_equal(a.n2[image], a.n1)
    assert np.array_equal(a.orientations[image], np.array([0, 2, 1, 3])[a.orientations])
    assert (sign == 1.0).all()
    assert np.array_equal(image[image], positions)
    # D P D = P^-1 as signed permutations: D P D takes i to image[turn[image[i]]]
    # with sign turn_sign[image[i]], and P^-1 takes turn[k] back to k with
    # sign turn_sign[k]
    inverse = np.argsort(turn)
    assert np.array_equal(image[turn[image]], inverse)
    assert np.array_equal(turn_sign[image], turn_sign[inverse])
    for th in (0.1, 0.7, 1.3, 2.9):
        R, mirrored = fan.rows(positions, th), fan.rows(positions, np.pi / 2 - th)
        assert np.linalg.norm(mirrored[image, ::-1] - R) <= 1e-12 * np.linalg.norm(R)
    # an open half-plane window, and the Radon model
    assert fan.symmetry(np.flatnonzero(a.n1 >= 0)) is None
    assert st.RadonModel(haar_atlas_j3).symmetry(positions) is None


@pytest.mark.parametrize("j0", [0, 1, 2, 3])
def test_fanbeam_symmetry_maps_are_the_square_group(j0):
    # on each scale window the turn P and the reflection D are signed
    # permutations with P^4 = 1, D^2 = 1 and D P D = P^-1, the relations of
    # the square's dihedral group; the turns P, P^2, P^3 and the reflections
    # D P, D P^3 fix no atom, so each orbit has 4 or 8 atoms
    model = build_model("fanbeam", j_max=j0 + 1)
    w = st.truncation_positions(model.atlas, j0)
    for image, sign in model.symmetry(w):
        assert np.array_equal(np.sort(image), np.arange(len(w)))
        assert np.isin(sign, (-1.0, 1.0)).all()
    group = square_group(model, w)          # P^k, then D P^k
    P, D, one = group[1], group[4], np.eye(len(w))
    assert np.array_equal(np.linalg.matrix_power(P, 4), one)
    assert np.array_equal(D @ D, one)
    assert np.array_equal(D @ P @ D, P.T)
    for k in (1, 2, 3, 5, 7):
        assert not np.diag(group[k]).any()


def test_fanbeam_zero_signal(haar_atlas_j2):
    fan = st.FanBeamModel(haar_atlas_j2)
    R = fan.rows(np.arange(4), 0.9)
    assert (R.T @ np.zeros(4) == 0.0).all()


FAN_ANGLES = ([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi, 5.2]
              + list(np.random.default_rng(7).uniform(0.0, 2 * np.pi, 8)))


def test_fanbeam_haar_rows_match_chord_oracle(haar_atlas_j2):
    # Haar rows are exact line integrals; theta = 0 holds a ray along y = 0,
    # an edge of some atoms' boxes and cells
    whole = st.FanBeamModel(haar_atlas_j2)
    window = build_model("fanbeam", order=1, j_max=3)   # alpha_step = s_step / rho
    cases = [(whole, np.arange(len(haar_atlas_j2))),
             (window, np.flatnonzero(window.atlas.scales <= 2))]
    for fan, positions in cases:
        for th in FAN_ANGLES:
            ref = chord_fan_rows(fan, positions, th)
            got = fan.rows(positions, th)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_fanbeam_rows_shuffled_positions_with_repeats(haar_atlas_j3):
    fan = st.FanBeamModel(haar_atlas_j3)
    rng = np.random.default_rng(1)
    base = rng.choice(len(haar_atlas_j3), 120, replace=False)
    positions = rng.permutation(np.concatenate([base, base[:30]]))
    uniq, inv = np.unique(positions, return_inverse=True)
    for th in (0.0, 0.9, 2.6, 4.4):
        assert np.array_equal(fan.rows(positions, th), fan.rows(uniq, th)[inv])
    assert fan.rows(np.array([], dtype=int), 0.9).shape == (0, fan.block_dim)


def test_fanbeam_rows_shared_boxes_match_one_atom_calls(haar_atlas_j3):
    # a dilation's groups share the geometry of their atoms' boxes; here the
    # orientations of a scale cover different boxes, the positions are
    # shuffled and repeat, and each atom's runs equal a one-atom call's
    atlas = haar_atlas_j3
    fan = st.FanBeamModel(atlas)
    rng = np.random.default_rng(5)
    top = atlas.scales == 3
    picks = [rng.choice(np.flatnonzero(top & (atlas.orientations == o)), 6, replace=False)
             for o in (1, 2, 3)]
    boxes = [{(atlas.n1[p], atlas.n2[p]) for p in pick} for pick in picks]
    assert boxes[0] != boxes[1] or boxes[1] != boxes[2]
    base = np.concatenate(picks + [rng.choice(np.flatnonzero(~top), 6, replace=False)])
    positions = rng.permutation(np.concatenate([base, base[:7]]))
    ts = np.array([0.0, np.pi / 2, 0.9, 2.6, 4.4])
    for th in ts:
        one = np.stack([fan.rows([p], th)[0] for p in positions])
        assert np.array_equal(fan.rows(positions, th), one)
    unit = np.eye(len(positions))
    got = np.stack([fan.measure(positions, x, ts) for x in unit])
    one = np.stack([fan.measure([p], [1.0], ts) for p in positions])
    assert np.array_equal(got, one)


@pytest.mark.parametrize("kind", ["fanbeam", "radon"])
def test_atom_norms_match_full_rows(haar_atlas_j3, kind):
    # norms from one group's rows at a time equal the norms of the full rows
    model = (st.FanBeamModel if kind == "fanbeam" else st.RadonModel)(haar_atlas_j3)
    rng = np.random.default_rng(2)
    whole = np.arange(len(haar_atlas_j3))
    shuffled = rng.permutation(np.concatenate([whole[::3], whole[:40]]))
    for positions in (whole, shuffled):
        for th in (0.0, 0.0131, 1.7, 4.4):
            R = model.rows(positions, th)
            expect = np.sqrt((R * R).sum(axis=1) * model.quad_weight)
            assert np.array_equal(atom_norms(model, positions, th), expect)


def test_fanbeam_atom_norms_peak_memory(haar_atlas_j3):
    # the norms never hold every row at once (and the rows squared beside it)
    import tracemalloc
    fan = st.FanBeamModel(haar_atlas_j3)
    positions = np.arange(len(haar_atlas_j3))
    full_rows = len(positions) * fan.block_dim * 8
    tracemalloc.start()
    try:
        atom_norms(fan, positions, 0.0131)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * full_rows


def test_radon_atom_norms_peak_memory():
    # on the full j_max = 5 atlas at s_step = h the rows would take 114 MiB
    # at once; the norms fill them a bounded block of rows at a time
    import tracemalloc
    atlas = st.build_atlas(st.build_filter(1), 5)
    rad = st.RadonModel(atlas)
    positions = np.arange(len(atlas))
    full_rows = len(positions) * rad.block_dim * 8
    tracemalloc.start()
    try:
        atom_norms(rad, positions, 0.0131)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * full_rows


def test_fanbeam_reparametrization_identity(haar_atlas_j3):
    # pointwise identity on the scales the default steps fully resolve
    a = haar_atlas_j3
    rad = st.RadonModel(a)
    fan = st.FanBeamModel(a)
    rng = np.random.default_rng(0)
    coarse = np.flatnonzero(a.scales <= 1)
    for pos in rng.choice(coarse, 6, replace=False):
        idx = a.gamma[pos]
        for th in (0.7, 3.5):
            row_fan = fan.rows([pos], th)[0]
            sel = np.flatnonzero(np.abs(row_fan) > 1e-12)
            w = a.filter.support_length / dilation(idx.scale)
            for k in sel[:: max(1, len(sel) // 6)]:
                al = fan.alpha_grid[k]
                phi = th + al - np.pi / 2
                # skip rays nearly parallel to an atom axis: there the matched
                # transform row is compressed below the offset grid and the
                # 1D interpolation cannot represent it
                if min(abs(np.cos(phi)), abs(np.sin(phi))) * w < 4 * rad.s_step:
                    continue
                r_row = rad.rows([pos], phi)[0]
                v = np.interp(fan.rho * np.sin(al), rad.s_grid, r_row)
                assert abs(v - row_fan[k]) <= 5 * rad.s_step


def test_fanbeam_norm_sandwich(haar_atlas_j3, radon_j3):
    a = haar_atlas_j3
    fan = st.FanBeamModel(a)
    lo = fan.rho ** -0.5
    hi = (fan.rho ** 2 - fan.d ** 2) ** -0.25
    rng = np.random.default_rng(3)
    w1 = st.truncation_positions(a, 1)
    nth = 32
    for _ in range(5):
        x = rng.standard_normal(len(w1))
        nR = nD = 0.0
        for k in range(nth):
            t = 2 * np.pi * k / nth
            vR = radon_j3.rows(w1, t).T @ x
            vD = fan.rows(w1, t).T @ x
            nR += (vR @ vR) * radon_j3.quad_weight / nth
            nD += (vD @ vD) * fan.quad_weight / nth
        ratio = np.sqrt(nD / nR)
        assert lo * 0.98 <= ratio <= hi * 1.02


# ---------------------------------------------------------------------------
# Fourier sampling of periodized 1D wavelets


@pytest.fixture(scope="module")
def fourier_model():
    return st.FourierWaveletModel(st.build_filter(1), j_max=4, n_freq=64)


def test_fourier_dc_coefficient_bounded(fourier_model):
    assert np.hypot(*fourier_model.rows([0], 0)[0]) <= 2.0


def test_fourier_range_guard(fourier_model):
    with pytest.raises(ValueError):
        fourier_model.rows([0], fourier_model.n_freq + 1)


def test_fourier_parseval_truncation(fourier_model):
    m = fourier_model
    for pos in range(0, m.dictionary_size(), 7):
        total = sum(float((m.rows([pos], t) ** 2).sum()) for t in m.freqs)
        assert total <= 1.0 + 1e-6


def test_fourier_coherence_decay(fourier_model):
    m = fourier_model
    C = 2.0
    for pos in range(0, m.dictionary_size(), 5):
        for t in range(1, m.n_freq + 1):
            assert np.hypot(*m.rows([pos], t)[0]) <= C / np.sqrt(t)


def test_fourier_density_normalized(fourier_model):
    assert abs(density_integral(fourier_model) - 1.0) <= 1e-8
    assert fourier_model.density(fourier_model.freqs).min() >= fourier_model.c_nu - 1e-15


def test_fourier_atoms_orthonormal(fourier_model):
    m = fourier_model
    S = np.stack([m.atom_samples(a) for a in m.labels()])
    G = S @ S.T / m.n_grid
    assert np.abs(G - np.eye(len(S))).max() < 1e-10


# ---------------------------------------------------------------------------
# Legendre pointwise evaluation


@pytest.fixture(scope="module")
def legendre_model():
    return st.LegendrePointModel(max_degree=30)


def test_legendre_first_polynomial_constant(legendre_model):
    vals = legendre_model.evaluate(np.array([-0.7, 0.1, 0.9]))
    assert np.abs(vals[0] - 1.0).max() < 1e-14


def test_legendre_sup_bound(legendre_model):
    ts = np.linspace(-1.0, 1.0, 2001)
    vals = legendre_model.evaluate(ts)
    sup = np.abs(vals).max(axis=1)
    i = np.arange(1, 32)
    assert np.all(sup <= np.sqrt(2.0 * i - 1.0) + 1e-12)
    assert np.allclose(sup, legendre_model.natural_weights(), rtol=1e-3)


def test_legendre_orthonormality_gauss(legendre_model):
    x, w = np.polynomial.legendre.leggauss(64)
    V = legendre_model.evaluate(x)
    G = (V * (w / 2.0)) @ V.T
    assert np.abs(G - np.eye(31)).max() < 1e-8


def test_legendre_domain_guard(legendre_model):
    with pytest.raises(ValueError):
        legendre_model.evaluate(1.5)


# ---------------------------------------------------------------------------
# sampling


def test_draw_samples_uniform_ks(radon_j2):
    t = st.draw_samples(radon_j2, 100000, seed=11)
    u = np.sort(t) / (2 * np.pi)
    n = len(u)
    ks = np.max(np.maximum(np.arange(1, n + 1) / n - u, u - np.arange(0, n) / n))
    assert ks <= 0.01


def test_draw_samples_deterministic(radon_j2):
    a = st.draw_samples(radon_j2, 100, seed=5)
    b = st.draw_samples(radon_j2, 100, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, st.draw_samples(radon_j2, 100, seed=6))


def test_draw_samples_fourier_histogram(fourier_model):
    m = 200000
    t = st.draw_samples(fourier_model, m, seed=4)
    p = fourier_model.density(fourier_model.freqs)
    p = p / p.sum()
    counts = np.array([(t == f).sum() for f in fourier_model.freqs])
    sigma = np.sqrt(m * p * (1 - p))
    z = np.abs(counts - m * p) / sigma
    assert (z <= 3.0).mean() >= 0.97
    assert z.max() <= 4.5


def test_draw_samples_guard(radon_j2):
    with pytest.raises(ValueError):
        st.draw_samples(radon_j2, 0, seed=1)


# ---------------------------------------------------------------------------
# assembled systems


def test_assemble_noiseless_consistency(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    window = st.truncation_positions(a, 1)
    rng = np.random.default_rng(0)
    x_full = np.zeros(len(a))
    x_full[window[:5]] = rng.standard_normal(5)
    samples = st.draw_samples(radon_j2, 6, seed=3)
    sys = st.assemble_system(radon_j2, window, samples, x_full=x_full, beta=0.0)
    assert np.abs(sys.matrix @ x_full[window] - sys.y).max() < 1e-12
    assert sys.tail_residual <= 1e-14


def test_assemble_noise_block_norms(haar_atlas_j2, radon_j2):
    a = haar_atlas_j2
    window = st.truncation_positions(a, 1)
    beta = 0.37
    samples = st.draw_samples(radon_j2, 5, seed=9)
    sys = st.assemble_system(radon_j2, window, samples, beta=beta, noise_seed=2)
    blocks = sys.y.reshape(sys.m, sys.block_dim)
    # stacked blocks carry 1/sqrt(m); the per-sample norm is beta exactly
    norms = np.sqrt((blocks ** 2).sum(axis=1) * sys.m)
    assert np.abs(norms - beta).max() <= 1e-12
    assert np.linalg.norm(sys.y) <= beta + 1e-12


def test_assemble_matrix_recomputable(haar_atlas_j2, radon_j2):
    window = st.truncation_positions(haar_atlas_j2, 1)
    samples = st.draw_samples(radon_j2, 4, seed=1)
    s1 = st.assemble_system(radon_j2, window, samples)
    s2 = st.assemble_system(radon_j2, window, samples)
    assert np.array_equal(s1.matrix, s2.matrix)


def test_assemble_norm_identity(haar_atlas_j2, radon_j2):
    # ||A x||^2 equals the averaged per-sample measurement norms
    window = st.truncation_positions(haar_atlas_j2, 1)
    samples = st.draw_samples(radon_j2, 7, seed=2)
    sys = st.assemble_system(radon_j2, window, samples)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(len(window))
        lhs = np.linalg.norm(sys.matrix @ x) ** 2
        rhs = 0.0
        for t in samples:
            v = radon_j2.rows(window, t).T @ x
            rhs += (v @ v) * radon_j2.quad_weight / sys.m
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_assemble_guards(haar_atlas_j2, radon_j2):
    window = st.truncation_positions(haar_atlas_j2, 1)
    with pytest.raises(ValueError):
        st.assemble_system(radon_j2, window, [])
    with pytest.raises(ValueError):
        st.assemble_system(radon_j2, window, st.draw_samples(radon_j2, 3, seed=0),
                           beta=-0.1)


def test_assemble_rejects_x_full_of_window_length(haar_atlas_j2, radon_j2):
    # x_full is indexed by dictionary position: a window-length vector over a
    # window that is not a prefix would be read from the wrong positions
    window = np.flatnonzero(radon_j2.scales() == 1)
    assert window[0] > 0
    with pytest.raises(ValueError, match="dictionary"):
        st.assemble_system(radon_j2, window, st.draw_samples(radon_j2, 2, seed=0),
                           x_full=np.ones(len(window)))


def test_assemble_rejects_repeated_positions(haar_atlas_j2, radon_j2):
    # a repeated window atom would count twice in the data A @ x_full[window]
    window = st.truncation_positions(haar_atlas_j2, 1)
    x_full = np.ones(len(haar_atlas_j2))
    with pytest.raises(ValueError, match="repeat"):
        st.assemble_system(radon_j2, np.r_[window, window[:1]],
                           st.draw_samples(radon_j2, 2, seed=0), x_full=x_full)


def test_assemble_group_profiles_once_per_sample(haar_atlas_j3, radon_j3, monkeypatch):
    # each (scale, orientation) profile of the window or the out-of-window
    # atoms is computed once per angle: 10 groups on the j_max=3, j0=2 cell.
    # One call computes a scale's profiles, for all its orientations, at a
    # batch of angles, so the counter adds angles times orientations; the
    # window's scales 0-2 and the tail's scale 3 take one call each
    _, x_full, _ = st.make_phantom(haar_atlas_j3, st.PhantomSpec("tail", a=0.5, seed=0), 2)
    window = st.truncation_positions(haar_atlas_j3, 2)
    profiles, scales = [], []
    base = st.RadonModel._scale_base

    def counted(self, scale, orientations, theta, fine_step):
        profiles.append(np.size(theta) * len(orientations))
        scales.append(scale)
        return base(self, scale, orientations, theta, fine_step)

    monkeypatch.setattr(st.RadonModel, "_scale_base", counted)
    m = 5
    st.assemble_system(radon_j3, window, st.draw_samples(radon_j3, m, seed=0), x_full=x_full)
    assert sum(profiles) == 10 * m
    assert scales == [0, 1, 2, 3]


def _dense_data(model, positions, x_full, samples):
    """Stacked data of x_full over positions from dense rows, one block per
    sample, with the assembly's 1/sqrt(m) and quadrature scaling."""
    scale = np.sqrt(model.quad_weight / len(samples))
    return np.concatenate([model.rows(positions, t).T @ x_full[positions] * scale
                           for t in samples])


@pytest.mark.parametrize("kind", ["tail", "cartoon", "sparse"])
def test_assemble_data_matches_dense_rows(haar_atlas_j3, radon_j3, kind):
    # the sparse phantom lies inside the window: its tail_residual is exactly 0
    a = haar_atlas_j3
    _, x_full, _ = st.make_phantom(a, st.PhantomSpec(kind, s=6, a=0.5, seed=4), 2)
    window = st.truncation_positions(a, 2)
    supp = np.flatnonzero(x_full)
    out = np.setdiff1d(supp, window)
    assert (len(out) == 0) == (kind == "sparse")
    samples = st.draw_samples(radon_j3, 6, seed=8)
    sys = st.assemble_system(radon_j3, window, samples, x_full=x_full, beta=0.0)
    y_dense = _dense_data(radon_j3, supp, x_full, samples)
    assert np.linalg.norm(sys.y - y_dense) <= 1e-13 * np.linalg.norm(y_dense)
    tail_dense = np.linalg.norm(_dense_data(radon_j3, out, x_full, samples))
    assert abs(sys.tail_residual - tail_dense) <= 1e-13 * tail_dense


def test_assemble_peak_memory(haar_atlas_j2, radon_j2):
    # the rows are written into one preallocated matrix: no second copy of A
    import tracemalloc
    window = st.truncation_positions(haar_atlas_j2, 1)
    samples = st.draw_samples(radon_j2, 200, seed=4)
    tracemalloc.start()
    try:
        sys = st.assemble_system(radon_j2, window, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sys.matrix.nbytes


def dense_assembly(model, positions, samples, x_full, beta, noise_seed):
    """Reference oracle: the dense assembly that wrote each sample's rows into
    one preallocated A, copied from before systems kept support runs.
    Returns (A, y, tail_residual)."""
    positions = np.asarray(positions, dtype=int)
    samples = np.asarray(samples, dtype=float)
    m = len(samples)
    scale = np.sqrt(model.quad_weight / m)
    bd = model.block_dim
    full = np.asarray(x_full, float)
    out = np.setdiff1d(np.flatnonzero(full), positions)
    rng = np.random.default_rng(noise_seed)
    A = np.empty((m * bd, len(positions)), order="F" if bd > 1 else "C")
    y = np.zeros(m * bd)
    noise = np.empty(m * bd) if beta > 0 else None
    for k, t in enumerate(samples):
        blk = slice(k * bd, (k + 1) * bd)
        A[blk] = model.rows(positions, t).T * scale
        if len(out):
            y[blk] = model.measure(out, full[out], t) * scale
        if noise is not None:
            g = rng.standard_normal(bd)
            g *= beta / (np.linalg.norm(g) * np.sqrt(model.quad_weight))
            noise[blk] = g * scale
    tail_res = float(np.linalg.norm(y))
    y += A @ full[positions]
    if noise is not None:
        y += noise
    return A, y, tail_res


# (model kind, build_model kwargs, window j0 or atom count, m); Fourier takes
# FourierWaveletModel's kwargs, for a bandwidth of its own.  The last is a
# short system, m * block_dim <= n
RUN_CASES = {
    "radon": ("radon", {"j_max": 3}, 2, 6),
    "radon_chunks": ("radon", {"j_max": 3}, 2, 2 * _CHUNK + 5),
    "fanbeam": ("fanbeam", {"j_max": 2}, 1, 4),
    "fourier": ("fourier", {"j_max": 3, "n_freq": 32}, 12, 40),
    "legendre": ("legendre", {}, 20, 50),
    "short": ("legendre", {}, 20, 5),
}


def _run_case(name):
    """(system, dense oracle (A, y, tail_residual), col) of one RUN_CASES
    entry, with a signal that also has out-of-window coefficients."""
    kind, kwargs, window, m = RUN_CASES[name]
    model = (st.FourierWaveletModel(st.build_filter(1), **kwargs) if kind == "fourier"
             else build_model(kind, **kwargs))
    rng = np.random.default_rng(7)
    if kind in ("radon", "fanbeam"):
        _, x_full, _ = st.make_phantom(model.atlas, st.PhantomSpec("tail", a=0.5, seed=2), window)
        positions = st.truncation_positions(model.atlas, window)
    else:
        x_full = rng.standard_normal(model.dictionary_size())
        positions = rng.permutation(model.dictionary_size())[:window]
    samples = st.draw_samples(model, m, seed=3)
    system = st.assemble_system(model, positions, samples, x_full=x_full, beta=0.05, noise_seed=4)
    col = 0.5 + rng.random(len(positions))
    return system, dense_assembly(model, positions, samples, x_full, 0.05, 4), col


@pytest.mark.parametrize("name", list(RUN_CASES))
def test_system_matrix_matches_dense_assembly(name):
    # the dense A built from the runs is the dense assembly's, layout included
    system, (A, y, tail_res), _ = _run_case(name)
    if name == "short":
        assert system.shape[0] <= system.shape[1]
    M = system.matrix
    assert M.tobytes() == A.tobytes()
    assert (M.flags.f_contiguous, M.flags.c_contiguous) == (A.flags.f_contiguous,
                                                            A.flags.c_contiguous)
    assert np.linalg.norm(system.y - y) <= 1e-13 * np.linalg.norm(y)
    assert system.tail_residual == tail_res


@pytest.mark.parametrize("name", list(RUN_CASES))
def test_system_gram_matches_dense_products(name):
    system, (A, y, _), col = _run_case(name)
    H, b = system.gram(col, system.y)
    H_dense = (A.T @ A) * col[:, None] * col[None, :]
    b_dense = col * (A.T @ system.y)
    assert np.linalg.norm(H - H_dense) <= 1e-14 * np.linalg.norm(H_dense)
    assert np.linalg.norm(b - b_dense) <= 1e-14 * np.linalg.norm(b_dense)
    # the sampled normal matrix A^T Q^2 A, Q = q_weights on each sample's
    # block, is the population pass of the samples' rule at weights
    # 1/(m f_nu) (q is not 1 on Fourier; no case's m but the fan beam's is a
    # power of two)
    qA = np.repeat(system.q_weights, system.block_dim)[:, None] * A
    Q = sampled_normal(system.model, system.positions, system.samples)
    Q_dense = qA.T @ qA
    assert np.linalg.norm(Q - Q_dense) <= 1e-14 * np.linalg.norm(Q_dense)


def test_system_gram_band_products_match_dense_products(monkeypatch):
    # the solver's Gram visits the samples in angle order: on a j0 = 3
    # window, 3 chunks of nearby angles stored out of order, every product
    # follows the runs (a band product), and the Gram and the sampled normal
    # matrix equal the dense products at the same 1e-14 (q = 1 on Radon)
    model = build_model("radon", j_max=4)
    positions = st.truncation_positions(model.atlas, 3)
    _, x_full, _ = st.make_phantom(model.atlas, st.PhantomSpec("tail", a=0.5, seed=2), 3)
    rng = np.random.default_rng(5)
    samples = rng.permutation(np.sort(st.draw_samples(model, 384, seed=3))[:3 * _CHUNK])
    system = st.assemble_system(model, positions, samples, x_full=x_full, beta=0.05,
                                noise_seed=4)
    plans, band = [], models._band

    def recorded(*args):
        plans.append(band(*args))
        return plans[-1]

    monkeypatch.setattr(models, "_band", recorded)
    col = 0.5 + rng.random(len(positions))
    H, b = system.gram(col, system.y)
    assert len(plans) == 3 and all(plan is not None for plan in plans)
    A = system.matrix
    H_dense = (A.T @ A) * col[:, None] * col[None, :]
    b_dense = col * (A.T @ system.y)
    assert np.linalg.norm(H - H_dense) <= 1e-14 * np.linalg.norm(H_dense)
    assert np.linalg.norm(b - b_dense) <= 1e-14 * np.linalg.norm(b_dense)
    assert (system.q_weights == 1.0).all()
    Q = sampled_normal(model, positions, np.sort(samples))
    assert len(plans) == 6 and all(plan is not None for plan in plans)
    Q_dense = A.T @ A
    assert np.linalg.norm(Q - Q_dense) <= 1e-14 * np.linalg.norm(Q_dense)
    assert (Q == Q.T).all()
    # a dense product between band products adds its upper triangle only
    plans.clear()

    def second_dense(*args):
        plans.append(None if len(plans) == 1 else band(*args))
        return plans[-1]

    monkeypatch.setattr(models, "_band", second_dense)
    H, b = system.gram(np.ones(len(positions)), system.y)
    assert [plan is None for plan in plans] == [False, True, False]
    assert (H == H.T).all()
    H *= col[:, None]
    H *= col[None, :]
    b *= col
    assert np.linalg.norm(H - H_dense) <= 1e-14 * np.linalg.norm(H_dense)
    assert np.linalg.norm(b - b_dense) <= 1e-14 * np.linalg.norm(b_dense)


@pytest.mark.parametrize("j0", [1, 3])
def test_system_gram_is_exactly_symmetric(j0, monkeypatch):
    # the solver's Gram at unit col equals its transpose bit for bit, on a
    # window whose products are all dense (j0 = 1) and on one whose products
    # all follow the runs (j0 = 3), 3 chunks of nearby angles each
    model = build_model("radon", j_max=j0 + 1)
    positions = st.truncation_positions(model.atlas, j0)
    samples = np.sort(st.draw_samples(model, 384, seed=3))[:3 * _CHUNK]
    system = st.assemble_system(model, positions, samples)
    plans, band = [], models._band

    def recorded(*args):
        plans.append(band(*args))
        return plans[-1]

    monkeypatch.setattr(models, "_band", recorded)
    H, _ = system.gram(np.ones(len(positions)), system.y)
    assert len(plans) == 3 and all((plan is None) == (j0 == 1) for plan in plans)
    assert np.array_equal(H, H.T)


@pytest.mark.parametrize("name", list(RUN_CASES))
def test_system_matvec_matches_dense_products(name):
    system, (A, y, _), _ = _run_case(name)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(system.shape[1])
        assert np.linalg.norm(system.matvec(x) - A @ x) <= 1e-13 * np.linalg.norm(A @ x)
        res = np.linalg.norm(A @ x - system.y)
        assert abs(system.residual_norm(x) - res) <= 1e-13 * res


def test_reconstruction_cell_peak_memory():
    # assembly plus solve of one cell stays far below the dense A it never
    # holds: the runs, one chunk's dense block and the n x n Gram
    import tracemalloc
    model = build_model("radon", j_max=3)
    _, x_full, _ = st.make_phantom(model.atlas, st.PhantomSpec("tail", a=0.5, seed=0), 2)
    window = st.truncation_positions(model.atlas, 2)
    m = 384
    samples = st.draw_samples(model, m, seed=1)
    tracemalloc.start()
    try:
        system = st.assemble_system(model, window, samples, x_full=x_full, beta=2.0 ** -6,
                                    noise_seed=2)
        res = st.solve_constrained_l1(system, st.WeightVector.ones(len(window)),
                                      st.SolveConfig(zeta=1.0, eta=2.0 ** -6 + system.tail_residual,
                                                     max_iters=200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.iterations >= 1
    assert peak <= 0.25 * m * model.block_dim * len(window) * 8


def test_q_weights_bounded(fourier_model):
    samples = st.draw_samples(fourier_model, 50, seed=0)
    sys = st.assemble_system(fourier_model, np.arange(6), samples)
    assert np.all(sys.q_weights <= fourier_model.c_nu ** -0.5 + 1e-12)


def test_synthetic_diagonal_population_gram(synthetic_model):
    n = synthetic_model.dictionary_size()
    G = st.population_gram_matrix(synthetic_model, np.arange(n), 32)
    expect = np.diag(4.0 ** (-0.5 * synthetic_model.scales()))
    assert np.abs(G - expect).max() < 1e-12


def test_uniform_bound_stable_under_refinement():
    # the measured operator bound moves < 10% when the raster grid halves
    vals = []
    for h in (2.0 ** -5, 2.0 ** -6):
        a = st.build_atlas(st.build_filter(1), 2, grid_resolution=h)
        mo = st.RadonModel(a)
        w = st.truncation_positions(a, 2)
        vals.append(uniform_bound_probe(mo, w, n_angles=64, seed=0))
    assert abs(vals[1] - vals[0]) <= 0.10 * vals[0]


def test_density_integral_quadrature(radon_j2):
    nodes, wts = radon_j2.population_nodes(64)
    total = float(np.sum(wts * radon_j2.density(nodes)))
    assert abs(total - 1.0) <= 1e-8


@pytest.mark.parametrize("kind", ["radon", "fanbeam", "fourier", "legendre", "synthetic"])
def test_density_integral_all_models(kind, synthetic_model):
    model = synthetic_model if kind == "synthetic" else build_model(kind, j_max=2)
    nodes, wts = model.population_nodes(64)
    total = float(np.sum(wts * model.density(nodes)))
    assert abs(total - 1.0) <= 1e-8
    assert abs(density_integral(model) - 1.0) <= 1e-8


def test_atom_index_validation():
    from sparsetomo.wavelets import AtomIndex
    with pytest.raises(ValueError):
        AtomIndex(scale=1, n1=0, n2=0, orientation=0)
    with pytest.raises(ValueError):
        AtomIndex(scale=0, n1=0, n2=0, orientation=2)
    with pytest.raises(ValueError):
        AtomIndex(scale=-1, n1=0, n2=0, orientation=0)
