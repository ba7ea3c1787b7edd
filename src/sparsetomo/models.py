"""Measurement models and sampled systems.

Four concrete models share one interface, the MeasurementModel base:
parallel-beam line integrals at an angle, fan-beam line integrals from a
source on a circle, Fourier coefficients of periodized 1D wavelets, and
pointwise evaluation of orthonormal Legendre polynomials.  Each model knows
its dictionary, its sampling density, and how to produce the measurement
block of a batch of dictionary elements at one parameter value, also as the
support runs of its rows at a batch of parameter values.  The Radon model
computes each group's profile for a chunk of angles in one pass; the
fan-beam model, which takes Haar atoms only, finds the rays that meet each
support box and their chords through its cells once per dilation and chunk
of angles for all the groups on those boxes, then takes each group's exact
chord-length line integrals from them.  Both cut every run to the span
where the row is nonzero.
A system of random samples is assembled a chunk of samples at a time and
keeps its stacked operator A as those runs, with quadrature weights and
1/sqrt(m) folded in, so plain Euclidean norms of stacked vectors equal the
(1/m)-averaged measurement-space norms.  One kernel, _HitGram, multiplies
the rows a chunk of runs touches as one dense block for every Gram: the
solver's by samples, the population Gram and the sampled normal matrix by
the nodes of one rule per pass.  The fan-beam rows at source angles
theta + pi/2 and pi/2 - theta are the rows at theta, signed and permuted
(FanBeamModel.symmetry, the square's quarter turn and diagonal reflection),
so its pass over a uniform rule visits one octant and the four axis nodes,
its pass over the half-step rule one octant, and each takes the other
octants' products and row norms from the first octant's.  The whole dense
A is built only for short solves and tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .wavelets import DictionaryAtlas, WaveletFilter, dilation, _cascade


class GeometryError(ValueError):
    """Measurement geometry cannot accommodate the dictionary."""


# ---------------------------------------------------------------------------
# the shared interface


class MeasurementModel:
    """Defaults shared by the measurement models.

    The parameter distribution is uniform on [0, 2pi) (density identically 1
    against the uniform probability measure), each measurement is one scalar
    with quadrature weight 1, and the natural weights are all 1.  Subclasses
    supply `labels()` and `rows(positions, t)`, the (len(positions),
    block_dim) measurement blocks at parameter t, and override whatever else
    differs.
    """

    c_nu = 1.0
    smoothing_exponent = 0.0
    block_dim = 1
    quad_weight = 1.0

    def dictionary_size(self) -> int:
        return len(self.labels())

    def scales(self) -> np.ndarray | None:
        return None

    def natural_weights(self) -> np.ndarray:
        return np.ones(self.dictionary_size())

    # -- density / sampling -------------------------------------------------
    def density(self, t):
        return np.ones_like(np.asarray(t, float))

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(0.0, 2.0 * np.pi, m)

    def population_nodes(self, n: int):
        """Quadrature nodes and weights for integrals against the uniform
        probability measure on [0, 2pi)."""
        return 2.0 * np.pi * np.arange(n) / n, np.full(n, 1.0 / n)

    def symmetry(self, positions):
        """None: the rows have no symmetry that the population pass may use
        (FanBeamModel's have one).  The Radon line integrals have it, but
        their interpolated rows do not: at theta = 0.1, 0.7 and 1.3 the
        turned rows of the j0 = 2 window are 7-25% off (Frobenius)."""
        return None

    def atom_norms(self, positions, t) -> np.ndarray:
        """Per-atom measurement norms at parameter t, from the support runs
        of _CHUNK parameters per _runs call, masked by parameter; for a vector
        t, one row per parameter, each the one-parameter call's bit for bit."""
        positions, ts = np.asarray(positions, dtype=int), np.atleast_1d(np.asarray(t, float))
        n, out = len(positions), np.empty((len(ts), len(positions)))
        for k0 in range(0, len(ts), _CHUNK):
            k, atom, col, val = map(np.concatenate, zip(*self._runs(positions, ts[k0:k0 + _CHUNK])))
            for i in range(min(_CHUNK, len(ts) - k0)):
                out[k0 + i] = self._row_norms(n, atom[k == i], col[k == i], val[k == i])
        return out if np.ndim(t) else out[0]

    def measure(self, positions, x, t) -> np.ndarray:
        """The measurement block sum_i x_i rows_i of coefficients x over
        positions at parameter t, from the support runs, one bincount per
        group and chunk of _CHUNK parameters; equals rows(positions, t).T @ x
        up to summation order.  For a vector t, one block per row."""
        positions = np.asarray(positions, dtype=int)
        x = np.asarray(x, float)
        ts = np.atleast_1d(np.asarray(t, float))
        out = np.zeros((len(ts), self.block_dim))
        for k0 in range(0, len(ts), _CHUNK):
            blk = out[k0:k0 + _CHUNK].reshape(-1)
            for k, atom, col, val in self._runs(positions, ts[k0:k0 + _CHUNK]):
                blk += np.bincount(k * self.block_dim + col, weights=val * x[atom],
                                   minlength=len(blk))
        return out if np.ndim(t) else out[0]

    def _runs(self, positions, ts):
        """(parameter, row, column, value) arrays of the rows' runs at each
        parameter of ts, as AtlasModel._runs yields them: here one group per
        parameter, whose runs are the whole rows."""
        for k, t in enumerate(ts):
            R = self.rows(positions, t)
            atom, col = np.indices(R.shape)
            yield np.full(R.size, k), atom.ravel(), col.ravel(), R.ravel()

    def _row_norms(self, n, atom, col, val) -> np.ndarray:
        """Norms of n rows from their runs at one parameter, each summed as a
        dense row (numpy's pairwise sum rounds by where the nonzeros sit), in
        blocks of rows of at most _NORM_ENTRIES entries."""
        step = max(1, _NORM_ENTRIES // self.block_dim)
        sums = np.empty(n)
        for a0 in range(0, n, step):
            sel = (atom >= a0) & (atom < a0 + step)
            sq = np.zeros((min(step, n - a0), self.block_dim))
            sq[atom[sel] - a0, col[sel]] = val[sel] * val[sel]
            sums[a0:a0 + step] = sq.sum(axis=1)
        return np.sqrt(sums * self.quad_weight)


class AtlasModel(MeasurementModel):
    """A measurement model over the atoms of a 2D wavelet atlas.

    Subclasses supply `_runs(positions, ts)`, which yields, per (scale,
    orientation) group, the nonzero entries of the group's rows at a batch of
    angles as (angle, row, column, value) arrays in angle order; an atom's
    nonzeros at one angle form one run of the block, in column order.
    `rows` scatters one angle's runs into a dense block, `measure` sums them
    _CHUNK angles at a time and `assemble_system` keeps them.
    """

    atlas: DictionaryAtlas

    def labels(self):
        return self.atlas.gamma

    def scales(self) -> np.ndarray:
        return self.atlas.scales

    def rows(self, positions, t) -> np.ndarray:
        """Measurement rows (len(positions), block_dim) at one angle, dense,
        scattered from the atoms' support runs."""
        R = np.zeros((len(positions), self.block_dim))
        for _, atom, col, val in self._runs(np.asarray(positions, dtype=int), [t]):
            R[atom, col] = val
        return R

    def _groups(self, positions):
        """(scale, orientation, rows) of each atom group among positions."""
        a = self.atlas
        keys = 4 * a.scales[positions] + a.orientations[positions]
        for key in np.unique(keys):
            scale, orientation = divmod(int(key), 4)
            yield scale, orientation, np.flatnonzero(keys == key)


def _run_cells(first, cnt):
    """(owner, index) of every cell of the runs [first_i, first_i + cnt_i)."""
    owner = np.repeat(np.arange(len(cnt)), cnt)
    index = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt - first, cnt)
    return owner, index


def _nonzero_span(owner, val, n):
    """(first, count) of the cells of each of n owners' runs from its first
    to its last nonzero value (count 0 if it has none); owner is sorted."""
    nz = np.flatnonzero(val)
    o = owner[nz]
    head, tail = np.diff(o, prepend=-1) != 0, np.diff(o, append=n) != 0
    lo, hi = np.zeros(n, dtype=int), np.full(n, -1)
    lo[o[head]], hi[o[tail]] = nz[head], nz[tail]
    return lo, hi + 1 - lo


def _nonzero_core(owner, cnt, val):
    """Mask of the cells of each owner's run from its first to its last
    nonzero value, or None when every run already starts and ends on one.
    Run i is the cnt_i consecutive cells of val that owner numbers i."""
    run = cnt > 0
    stop = np.cumsum(cnt)[run]
    if val[stop - cnt[run]].all() and val[stop - 1].all():
        return None
    first, n = _nonzero_span(owner, val, len(cnt))
    i = np.arange(len(val)) - first[owner]
    return (0 <= i) & (i < n[owner])


# ---------------------------------------------------------------------------
# parallel beam


def _convolved_base_row(fx, fy, c, s, h, out_grid):
    """Line-integral profiles of the separable bump f_x (x) f_y along the
    direction angles with cosines c and sines s, (k,) arrays, each evaluated
    on its row of out_grid, (k, L).

    Writes the integral as a 1D convolution of the two stretched factors and
    evaluates it by sampling the wider factor at the narrower factor's cell
    midpoints, weighted by the narrow factor's trapezoid cell masses.  The
    degenerate near-axis case (one stretch collapsing to a point mass) needs
    no special handling under this scheme.  Which factor is wider depends on
    the angle, so the angles of each case take one pass together.
    """
    wx = (len(fx) - 1) * h
    wy = (len(fy) - 1) * h
    out = np.empty(out_grid.shape)
    x_wide = np.abs(c) * wx >= np.abs(s) * wy
    for sel, wide, aw, nar, an in ((x_wide, fx, c, fy, s), (~x_wide, fy, s, fx, c)):
        if not sel.any():
            continue
        if sel.all():       # one case holds every angle: index by a view
            sel = slice(None)
        aw, an = aw[sel, None, None], an[sel, None, None]
        masses = 0.5 * h * (nar[:-1] + nar[1:])
        centers = an * h * (np.arange(len(nar) - 1) + 0.5)
        P = (out_grid[sel, :, None] - centers) / aw
        V = np.interp(P, np.arange(len(wide)) * h, wide, left=0.0, right=0.0)
        out[sel] = (V * masses).sum(axis=2) / np.abs(aw[:, :, 0])
    return out


class RadonModel(AtlasModel):
    """Line-integral measurements of atlas atoms at angles in [0, 2pi).

    The angle distribution is uniform, the per-angle measurement space is the
    s-offset grid with trapezoid weight s_step.  Rows, measurements, Grams
    and the coherence norms (MeasurementModel.atom_norms) all read the
    support runs of _runs.
    """

    smoothing_exponent = 0.5

    def __init__(self, atlas: DictionaryAtlas, s_step: float | None = None):
        self.atlas = atlas
        self.s_step = atlas.grid.h if s_step is None else float(s_step)
        smax = atlas.support_radius + 0.05   # the grid runs a margin past every atom
        n = int(np.ceil(smax / self.s_step))
        self.s_grid = self.s_step * np.arange(-n, n + 1)
        self.block_dim = len(self.s_grid)
        self.quad_weight = self.s_step

    def _group_base(self, scale: int, orientation: int, theta, fine_step: float):
        """Offset grids and line-integral profiles of one (scale, orientation)
        group at a vector of angles theta: row k holds angle k's grid and
        profile, padded to the longest.  The grid continues the progression
        np.arange fills, start + i * ((start + step) - start), and the
        profile, 0 past its support, reads 0 on the padding.  (np.arange sets
        node 1 to start + step, the same number here: start <= -step, so
        (start + step) - start is exact.)"""
        c, s = np.cos(theta), np.sin(theta)
        kx, ky = self.atlas.profile_kinds(orientation)
        fx = self.atlas.profile(scale, kx)
        fy = self.atlas.profile(scale, ky)
        h = self.atlas.grid.h
        # each angle's grid covers the support, one fine step before it and
        # two after
        w = self.atlas.filter.support_length / dilation(scale)
        wc, ws = w * c, w * s
        start = np.minimum(0.0, wc) + np.minimum(0.0, ws) - fine_step
        stop = np.maximum(0.0, wc) + np.maximum(0.0, ws) + 2.0 * fine_step
        index = np.arange(np.ceil((stop - start) / fine_step).astype(int).max())
        grid = start[:, None] + index * ((start + fine_step) - start)[:, None]
        return grid, _convolved_base_row(fx, fy, c, s, h, grid)

    def _runs(self, positions, thetas):
        """(angle, atom, offset, value) arrays of each (scale, orientation)
        group at a batch of angles; callers pass at most _CHUNK at a time.

        Atoms of one group share one base profile per angle; each atom's row
        is that profile resampled at its own offset shift.  The profile is
        nonzero only on the open interval between the grid nodes glo and ghi
        around its nonzero values, so a row is nonzero on one run of offsets
        only: those whose sample point P = offset - shift, the point interp
        reads, passes glo < P < ghi.  Rounding can move the ends of the run
        by one offset from where the arithmetic puts them, so the exact test
        is made on the candidates next to each end.  The runs' points then
        take one interp call per angle, on that angle's own profile grid.  An
        exact zero of the profile inside its span can still fall on a run's
        end, and is cut too: every run starts and ends on a nonzero value,
        and drops only exact zeros of the row.
        """
        thetas = np.atleast_1d(np.asarray(thetas, float))
        c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
        fine = self.s_step / 2.0
        sg = self.s_grid
        top, zero = len(sg) - 1, len(sg) // 2       # sg = s_step * (index - zero)
        n1, n2 = self.atlas.n1[positions], self.atlas.n2[positions]
        for scale, orient, sel in self._groups(positions):
            grid, base = self._group_base(scale, orient, thetas, fine)
            nz = base != 0.0
            live = np.flatnonzero(nz.any(axis=1))      # angles whose profile is not all 0
            nz = nz[live]
            glo = grid[live, nz.argmax(axis=1) - 1][:, None]
            ghi = grid[live, nz.shape[1] - nz[:, ::-1].argmax(axis=1)][:, None]
            shifts = (n1[sel] * c[live] + n2[sel] * s[live]) / dilation(scale)
            # the first offset with P > glo, and one past the last with P < ghi
            i = np.floor((shifts + glo) / self.s_step).astype(int) + zero
            j = np.ceil((shifts + ghi) / self.s_step).astype(int) + zero - 1
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
            keep = _nonzero_core(pair, cnt, val)    # an exact zero of the profile may end a run
            if keep is not None:
                angle, atom, col, val = angle[keep], atom[keep], col[keep], val[keep]
            yield angle, atom, col, val


# ---------------------------------------------------------------------------
# fan beam


class FanBeamModel(AtlasModel):
    """Line integrals along rays from a source at distance rho = 3, one
    source angle per sample, measured over the ray-angle grid on (-pi/2,
    pi/2).

    The support of every dictionary atom must fit inside the ball of radius
    d < rho, here the smallest ball that contains the atlas.  Only Haar
    atlases (filter order 1) fit; higher orders raise GeometryError.  The
    ray geometry of a chunk of angles is computed once per dilation over the
    distinct support boxes of its atoms, which a scale's orientations share;
    rows then come one (scale, orientation) group at a time as exact
    chord-length line integrals.
    """

    smoothing_exponent = 0.5
    rho = 3.0       # Haar atoms reach radius 2.12, higher orders 3.54 and up

    def __init__(self, atlas: DictionaryAtlas, alpha_step: float | None = None):
        if atlas.filter.regularity_order != 1:
            raise GeometryError(
                f"fan beam takes Haar atoms only: order-{atlas.filter.regularity_order} "
                f"atoms reach radius {atlas.support_radius:.4f}, past rho={self.rho}")
        self.atlas = atlas
        self.d = atlas.support_radius * (1.0 + 1e-9)
        self.alpha_step = (atlas.grid.h / self.rho) if alpha_step is None else float(alpha_step)
        n = int(np.ceil((np.pi / 2.0) / self.alpha_step))
        self.alpha_grid = self.alpha_step * np.arange(-n, n + 1)
        self.block_dim = len(self.alpha_grid)
        self.quad_weight = self.alpha_step

    def symmetry(self, positions):
        """The quarter turn and the diagonal reflection of the square on the
        atoms at positions, each as (image, sign): at the source angle the
        map takes theta to (theta + pi/2 for the turn, pi/2 - theta for the
        reflection), the row of positions[image[i]] is sign[i] times the row
        of positions[i] at theta, its rays reversed under the reflection.
        None when either map takes an atom out of positions.

        The turn (x, y) -> (-y, x) carries the source and every ray at theta
        to theta + pi/2, on the same ray-grid index, and carries the Haar
        atom (j, n1, n2, o) to sign times the atom (j, -n2 - 1, n1, o'): its
        y factor, reflected, becomes the x factor, so o' swaps orientations
        1 and 2, and a reflected Haar wavelet changes sign, so sign is -1
        where the y factor is a wavelet (orientations 2 and 3).  The
        reflection (x, y) -> (y, x) carries the source at theta to pi/2 -
        theta and the ray at angle alpha to -alpha, ray index i to 2n - i on
        the symmetric ray grid, and the atom (j, n1, n2, o) to (j, n2, n1,
        o'), no factor reflected, so every sign is +1.  Neither changes a
        norm or the Gram of a row, whatever the ray order.  The atlas, whose
        atoms are those whose boxes meet the unit disk, and its scale
        windows are closed under both.  The chord kernel's half-open cells
        are not: on the axis angles a ray can run along a cell edge, so the
        rows there are not mapped copies of each other."""
        a, p = self.atlas, np.asarray(positions, dtype=int)
        j, n1, n2, o = a.scales[p], a.n1[p], a.n2[p], a.orientations[p]
        swap = np.array([0, 2, 1, 3])[o]

        def keys(*cols):
            return zip(*(c.tolist() for c in cols))

        at = {key: i for i, key in enumerate(keys(j, n1, n2, o))}
        turn = [at.get(key) for key in keys(j, -n2 - 1, n1, swap)]
        mirror = [at.get(key) for key in keys(j, n2, n1, swap)]
        if None in turn or None in mirror:
            return None
        return ((np.array(turn), np.where(o >= 2, -1.0, 1.0)),
                (np.array(mirror), np.ones(len(p))))

    def _runs(self, positions, thetas):
        """(angle, atom, ray, value) arrays of ray integrals, one (scale,
        orientation) group at a time over the whole batch of angles.

        The geometry takes one pass per dilation over the distinct support
        boxes of its atoms: a scale's three orientations, and scale 0's
        scaling atoms with scale 1's, sit on the same boxes.  The rays that
        may meet a box are a run of the ray grid, those within its
        circumscribed circle's angular half-width (plus one ray step) of the
        ray through its center.  Each (angle, box) pair's candidates take
        the exact test, their directions and their chords through the box's
        2 x 2 cells (_haar_chords) once, and each box's run is cut to the
        rays that meet it.  Each group then reads its atoms' runs from their
        boxes and weights the chords by its cells' profile values.  Each run
        is then cut to its nonzero span."""
        a, grid = self.atlas, self.alpha_grid
        thetas = np.atleast_1d(np.asarray(thetas, float))
        # one angle at a time: the source rounds as in a one-angle call
        src = np.array([self.rho * np.array([np.cos(t), np.sin(t)]) for t in thetas])
        w, n_all = a.filter.support_length, np.stack([a.n1[positions], a.n2[positions]], axis=1)
        for d, groups in itertools.groupby(self._groups(positions), lambda g: dilation(g[0])):
            groups = list(groups)
            n, box_of = _distinct_rows(n_all[np.concatenate([sel for *_, sel in groups])])
            lo = n / d                                        # box corners; every side is w/d
            to_c = (0.5 * (lo + (n + w) / d) - src[:, None]).reshape(-1, 2)   # source -> center
            th = np.repeat(thetas, len(n))                    # per (angle, box)
            # the batched dot product rounds as np.linalg.norm of a 2-vector
            dist = np.sqrt((to_c[:, None, :] @ to_c[:, :, None])[:, 0, 0])
            phi_abs = np.arctan2(to_c[:, 1], to_c[:, 0])
            # the box sits at negative ray parameter, so the ray angles that
            # meet it cluster around the direction opposite to source->box
            alpha_c = (phi_abs - th) % (2.0 * np.pi) - np.pi
            rad = 0.5 * np.hypot(w / d, w / d)
            half = np.arcsin(np.minimum(1.0, rad / dist)) + self.alpha_step
            # a box's hit rays are a run of the grid: take the run with one
            # index of margin, then apply the exact test
            first = np.maximum(np.searchsorted(grid, alpha_c - half) - 1, 0)
            stop = np.minimum(np.searchsorted(grid, alpha_c + half, "right") + 1, len(grid))
            pair, ray = _run_cells(first, stop - first)
            hit = np.abs(grid[ray] - alpha_c[pair]) <= half[pair]
            pair, ray = pair[hit], ray[hit]
            angle, box = np.divmod(pair, len(n))
            alphas, theta = grid[ray], thetas[angle]
            dirs = np.stack([np.cos(theta + alphas), np.sin(theta + alphas)])
            chord = _haar_chords(w / d, src.T[:, angle], dirs, lo.T[:, box])
            # a ray that misses the box has four zero chords and a zero value
            # in every group: each box's run starts and ends on a ray that
            # meets it
            start, cnt = _nonzero_span(pair, chord.any(axis=(0, 1)), len(to_c))
            ends = np.cumsum([len(sel) for *_, sel in groups])
            for (scale, orient, sel), gbox in zip(groups, np.split(box_of, ends[:-1])):
                # the (angle, box) pair of each of the group's (angle, atom)
                # pairs, angle by angle; owner numbers the latter
                bp = (gbox + len(n) * np.arange(len(thetas))[:, None]).ravel()
                owner, cell = _run_cells(start[bp], cnt[bp])
                fx, fy = (a.profile(scale, kind) for kind in a.profile_kinds(orient))
                samples = [0, (len(fx) - 1) // 2]            # the cells' values at 0 and W/2
                value = np.outer(fx[samples], fy[samples])
                # a sum of rows, not a BLAS product: each cell's value rounds
                # alike whatever its place in the batch
                val = (value[:, :, None] * chord).sum(axis=(0, 1))[cell]
                keep = _nonzero_core(owner, cnt[bp], val)    # a zero value may still end a run
                if keep is not None:
                    owner, cell, val = owner[keep], cell[keep], val[keep]
                ga, atom = np.divmod(owner, len(sel))
                # int32 indices: assembly holds a chunk of angles' runs at once
                yield (ga.astype(np.int32), sel[atom].astype(np.int32),
                       ray[cell].astype(np.int32), val)


def _distinct_rows(n):
    """The distinct rows of an (k, 2) integer array, ordered by one integer
    key per row, and the index of each row of n among them."""
    off = n - n.min(axis=0)
    _, first, inverse = np.unique(off[:, 0] * (off[:, 1].max() + 1) + off[:, 1],
                                  return_index=True, return_inverse=True)
    return n[first], inverse


def _haar_chords(W, src, dirs, corner):
    """Chord lengths (x cell, y cell, pair) of the rays src + t dirs
    through the 2 x 2 constant cells of boxes of side W with lower-left
    corner `corner`; src, dirs and corner are (2, pairs).

    Along each axis the box side W is cut at W/2.  The ray crosses the cell
    [e0, e1) of axis i for t between (e0 - src_i) / u and (e1 - src_i) / u,
    u its direction component (slab clipping).  The edges are exact (dyadic
    corners and sides), so each difference rounds once, and a near-axis ray
    along an edge stays on the right side of it.  A ray parallel to the axis
    (u = 0) lies in the cell for every t when e0 <= src_i < e1, the cells'
    half-open convention, and for no t otherwise.  A cell's chord is the
    overlap of its two axes' t-intervals; a Haar atom's ray integral is its
    cell values times these chords, summed."""
    e = corner[:, None] + np.array([0.0, W / 2.0, W])[:, None]   # (axis, edge, pair)
    p = src[:, None]
    flat = dirs == 0.0
    t = (e - p) / np.where(flat, 1.0, dirs)[:, None]
    enter, leave = np.minimum(t[:, :-1], t[:, 1:]), np.maximum(t[:, :-1], t[:, 1:])
    if flat.any():
        inside = (e[:, :-1] <= p) & (p < e[:, 1:])
        enter = np.where(flat[:, None], np.where(inside, -np.inf, np.inf), enter)
        leave = np.where(flat[:, None], -enter, leave)
    chord = (np.minimum(leave[0][:, None], leave[1][None, :])
             - np.maximum(enter[0][:, None], enter[1][None, :]))
    return np.maximum(chord, 0.0, out=chord)


# ---------------------------------------------------------------------------
# periodic Fourier sampling of 1D wavelets


@dataclass(frozen=True, order=True)
class PeriodicAtomIndex:
    """Label (scale, translation, kind) of a periodized 1D atom; kind 0 is the
    scaling layer (scale 0 only), kind 1 the wavelet layers."""

    scale: int
    n: int
    kind: int


class FourierWaveletModel(MeasurementModel):
    """Fourier coefficients of periodized compactly supported 1D wavelets.

    The dictionary lives on the unit circle; measurements are the integer
    Fourier coefficients within a bandwidth N, sampled with density
    proportional to 1/|t| (and the measurement space is C identified with
    R^2).
    """

    block_dim = 2

    def __init__(self, filt: WaveletFilter, j_max: int, n_freq: int | None = None):
        self.filter = filt
        self.j_max = int(j_max)
        self.n_freq = int(2 ** (j_max + 3)) if n_freq is None else int(n_freq)
        # the rasterization grid must comfortably exceed the bandwidth, or the
        # tabulated coefficients alias
        K_min = int(np.ceil(np.log2(4 * self.n_freq)))
        self.n_grid = 2 ** max(j_max + 3, K_min)
        self._labels: list[PeriodicAtomIndex] = []
        self._samples = {}
        self._build_atoms()
        ts = np.arange(1, self.n_freq + 1)
        self.c_norm = 1.0 + 2.0 * np.sum(1.0 / ts)
        self.freqs = np.concatenate([[0], np.stack([ts, -ts], 1).ravel()])
        self._fhat = None
        self.c_nu = 1.0 / (self.n_freq * self.c_norm)

    def _build_atoms(self):
        h = 1.0 / self.n_grid
        for j in range(self.j_max + 1):
            d = dilation(j)
            level = int(round(np.log2(self.n_grid / d)))
            chi, psi = _cascade(self.filter, level)
            # scale 0 is the scaling layer; scales >= 1 the wavelet layers
            for kind, arr in (((0, chi),) if j == 0 else ((1, psi),)):
                base = np.zeros(self.n_grid)
                samples = arr[:-1] * np.sqrt(d)  # drop duplicated right endpoint
                for k in range(len(samples)):
                    base[k % self.n_grid] += samples[k]
                base = base / np.sqrt(h * np.sum(base * base))
                self._samples[(j, kind)] = base
                for n in range(d):
                    self._labels.append(PeriodicAtomIndex(scale=j, n=n, kind=kind))

    def labels(self):
        return self._labels

    def scales(self) -> np.ndarray:
        return np.array([a.scale for a in self._labels])

    def atom_samples(self, idx: PeriodicAtomIndex) -> np.ndarray:
        base = self._samples[(idx.scale, idx.kind)]
        d = dilation(idx.scale)
        return np.roll(base, idx.n * self.n_grid // d)

    def _coefficient_table(self) -> np.ndarray:
        """(n_atoms, n_freq_grid) table of DFT coefficients, cached."""
        if self._fhat is None:
            S = np.stack([self.atom_samples(a) for a in self._labels])
            self._fhat = np.fft.fft(S, axis=1) / self.n_grid
        return self._fhat

    def density(self, t):
        t = np.asarray(t)
        denom = np.where(t == 0, 1.0, np.abs(t))
        return 1.0 / (denom * self.c_norm)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        p = self.density(self.freqs)
        return self.freqs[rng.choice(len(self.freqs), size=m, p=p / p.sum())]

    def population_nodes(self, n: int = 0):
        # counting measure over the bandwidth; n is ignored
        return self.freqs.astype(float), np.ones(len(self.freqs))

    def rows(self, positions, t) -> np.ndarray:
        """The t-th Fourier coefficients of the atoms (quadrature DFT) as
        (real, imaginary) rows; |t| may not exceed the bandwidth."""
        t = int(round(float(t)))
        if abs(t) > self.n_freq:
            raise ValueError(f"|t|={abs(t)} exceeds bandwidth N={self.n_freq}")
        vals = self._coefficient_table()[np.asarray(positions, int), t % self.n_grid]
        return np.stack([vals.real, vals.imag], axis=1)


# ---------------------------------------------------------------------------
# pointwise sampling of orthonormal Legendre polynomials


class LegendrePointModel(MeasurementModel):
    """Pointwise evaluation of polynomials orthonormal under the uniform
    probability measure on [-1, 1]; degree index i = 1.. has sup-norm
    sqrt(2i - 1), which is also the natural weight vector."""

    def __init__(self, max_degree: int):
        self.max_degree = int(max_degree)

    def labels(self):
        return list(range(1, self.max_degree + 2))

    def natural_weights(self) -> np.ndarray:
        i = np.arange(1, self.max_degree + 2)
        return np.sqrt(2.0 * i - 1.0)

    def evaluate(self, t) -> np.ndarray:
        """Values p_i(t), i = 1..max_degree + 1, via the three-term recurrence
        of the classical polynomials, normalized to unit L2(w) norm."""
        if np.any(np.asarray(t) < -1.0) or np.any(np.asarray(t) > 1.0):
            raise ValueError("evaluation points must lie in [-1, 1]")
        m = self.max_degree + 1
        t = np.atleast_1d(np.asarray(t, float))
        P = np.empty((m, len(t)))
        P[0] = 1.0
        if m > 1:
            P[1] = t
        for k in range(1, m - 1):
            P[k + 1] = ((2 * k + 1) * t * P[k] - k * P[k - 1]) / (k + 1)
        norm = np.sqrt(2.0 * np.arange(1, m + 1) - 1.0)
        return P * norm[:, None]

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, m)

    def population_nodes(self, n: int):
        x, w = np.polynomial.legendre.leggauss(max(n, self.max_degree + 2))
        return x, w / 2.0

    def rows(self, positions, t) -> np.ndarray:
        vals = self.evaluate(float(t))[:, 0]
        return vals[np.asarray(positions, int)][:, None]


# ---------------------------------------------------------------------------
# sampling and assembly


def draw_samples(model, m: int, seed: int) -> np.ndarray:
    """m i.i.d. draws from the model's sampling distribution, deterministic
    in the seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return model.sample(m, np.random.default_rng(seed))


_CHUNK = 16      # parameters per batch of _runs, samples or nodes per _HitGram product
_NORM_ENTRIES = 2 ** 18     # entries per dense block of rows that _row_norms sums


class _HitGram:
    """The one Gram kernel over support runs: add(H, n_rows, row, atom, val)
    adds C^T C to H, C the rows of a chunk of n_rows rows that some cell of
    its runs touches (the others add nothing), scattered into the head of one
    reused zero block, grown to the most rows a chunk has touched.  With y,
    the chunk's data, add also returns C^T y over the same rows."""

    def __init__(self, n: int):
        self.block = np.zeros((0, n))

    def add(self, H, n_rows, row, atom, val, y=None):
        hit = np.zeros(n_rows, dtype=bool)
        hit[row] = True
        k = np.count_nonzero(hit)
        if len(self.block) < k:
            self.block = None               # freed before its successor is made
            self.block = np.zeros((k, len(H)))
        C = self.block[:k]
        flat = C.reshape(-1)
        cell = (np.cumsum(hit) - 1)[row] * len(H) + atom    # in C, whose rows are the hit rows
        flat[cell] = val
        H += C.T @ C
        Cty = None if y is None else C.T @ y[hit]
        flat[cell] = 0.0
        return Cty


class SampledSystem:
    """A drained measurement setup: samples, per-sample density weights, the
    stacked (equally weighted) measurement vector y, and the stacked sampling
    operator A with 1/sqrt(m) and quadrature weights folded in.

    A is held as support runs: per (sample, atom), the first row of the
    atom's run in the sample's block and the run's length, and per chunk of
    _CHUNK samples the runs' values, sample by sample and atom by atom.
    Every reader of A reads the runs: `gram` through _HitGram, `matvec` by
    sums, and `dense_chunks` gives the dense rows of one chunk at a time,
    for `matrix`, the dense (m * block_dim, len(positions)) A that only
    short solves and tests ask for.  A dense `matrix` passed in is held as
    runs that each cover a whole block.  Only the solver reads a system.
    """

    def __init__(self, model, positions, samples, q_weights, y, noise_bound,
                 tail_residual: float = 0.0, matrix=None, runs=None):
        self.model = model
        self.positions = positions          # dictionary positions forming the window
        self.samples = samples
        self.q_weights = q_weights          # f_nu(t_k)^(-1/2), one per sample
        self.y = y                          # stacked measurements, same scaling as A's rows
        self.noise_bound = noise_bound
        self.tail_residual = tail_residual  # norm of the out-of-window atoms' stacked data
        self.block_dim = len(y) // self.m
        if matrix is not None:
            blocks = np.swapaxes(np.reshape(matrix, (self.m, self.block_dim, -1)), 1, 2)
            cells = np.full(blocks.shape[:2], self.block_dim, dtype=np.int32)
            runs = (np.zeros_like(cells), cells,
                    [blocks[k0:k0 + _CHUNK].ravel() for k0 in range(0, self.m, _CHUNK)])
        self._start, self._len, self._vals = runs

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def shape(self) -> tuple:
        return (self.m * self.block_dim, len(self.positions))

    def _cells(self):
        """(rows, row, atom, value) of each chunk of _CHUNK samples: the
        chunk's slice of stacked rows, and its runs' cells with their row
        inside the chunk."""
        bd, n = self.block_dim, self.shape[1]
        for k0 in range(0, self.m, _CHUNK):
            k1 = min(k0 + _CHUNK, self.m)
            first = self._start[k0:k1] + bd * np.arange(k1 - k0)[:, None]
            owner, row = _run_cells(first.ravel(), self._len[k0:k1].ravel())
            yield slice(k0 * bd, k1 * bd), row, owner % n, self._vals[k0 // _CHUNK]

    def dense_chunks(self):
        """(rows, block) of each chunk of _CHUNK samples: its slice of the
        stacked rows and those rows of A, dense.  The block is a view of one
        buffer that the next step rewrites; a consumer may scale it in place."""
        buf = np.zeros((min(_CHUNK, self.m) * self.block_dim, self.shape[1]))
        for rows, row, atom, val in self._cells():
            block = buf[:rows.stop - rows.start]
            block[row, atom] = val
            yield rows, block
            block[row, atom] = 0.0

    @property
    def matrix(self) -> np.ndarray:
        """The dense A, built from the runs.  Column-major, as stacking the
        transposed row blocks lays A out (row-major for single-row blocks):
        BLAS rounds products with A by layout, so the layout is part of what
        the products with it return."""
        A = np.empty(self.shape, order="F" if self.block_dim > 1 else "C")
        for rows, block in self.dense_chunks():
            A[rows] = block
        return A

    def gram(self, col: np.ndarray, y: np.ndarray):
        """(col A^T A col, col A^T y), accumulated _CHUNK samples at a time
        by _HitGram, so A is never held dense."""
        n = self.shape[1]
        H, b = np.zeros((n, n)), np.zeros(n)
        kernel = _HitGram(n)
        for rows, row, atom, val in self._cells():
            b += kernel.add(H, rows.stop - rows.start, row, atom, val, y[rows])
        H *= col[:, None]
        H *= col[None, :]
        return H, col * b

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the runs."""
        out = np.empty(self.shape[0])
        for rows, row, atom, val in self._cells():
            out[rows] = np.bincount(row, weights=val * x[atom], minlength=rows.stop - rows.start)
        return out

    def residual_norm(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.matvec(x) - self.y))


def assemble_system(model, positions, samples, x_full=None, beta: float = 0.0,
                    noise_seed: int = 0) -> SampledSystem:
    """Collect per-sample measurement runs into one SampledSystem.

    x_full holds coefficients over the model's whole dictionary (any part
    outside `positions` contributes to the data but not to A).  Noise draws
    one Gaussian block per sample, rescaled so each block has
    measurement-space norm exactly beta.  The samples are taken _CHUNK at a
    time: `model._runs` yields the chunk's rows over the window as support
    runs (for the Radon model, each cut to the span where its profile is
    nonzero), which are kept already scaled, sample by sample and atom by
    atom; A is never written dense.  The data is A applied to the in-window
    coefficients plus one many-angle `model.measure` of the chunk over the
    out-of-window atoms only; tail_residual is the latter's norm.
    """
    positions = np.asarray(positions, dtype=int)
    samples = np.asarray(samples, dtype=float)
    m, n = len(samples), len(positions)
    if m < 1:
        raise ValueError("m must be >= 1")
    if x_full is not None and len(x_full) != model.dictionary_size():
        raise ValueError(f"x_full has {len(x_full)} coefficients, the dictionary "
                         f"{model.dictionary_size()}")
    if beta < 0:
        raise ValueError("noise bound must be >= 0")
    if n < 1 or len(np.unique(positions)) != n:
        raise ValueError("positions must be nonempty and must not repeat")
    scale = np.sqrt(model.quad_weight / m)
    bd = model.block_dim
    full = np.zeros(0) if x_full is None else np.asarray(x_full, float)
    out = np.setdiff1d(np.flatnonzero(full), positions)
    x_w = full[positions] if x_full is not None else np.zeros(n)
    start = np.zeros((m, n), dtype=np.int32)
    length = np.zeros((m, n), dtype=np.int32)
    vals = []
    y, y_w = np.zeros(m * bd), np.zeros(m * bd)
    for k0 in range(0, m, _CHUNK):
        ts = samples[k0:k0 + _CHUNK]
        rows = slice(k0 * bd, (k0 + len(ts)) * bd)
        k, atom, col, val = map(np.concatenate, zip(*model._runs(positions, ts)))
        val *= scale
        run = k * n + atom                   # (sample, atom); a run's cells are adjacent
        cnt = np.bincount(run, minlength=len(ts) * n)
        head = np.flatnonzero(np.diff(run, prepend=-1))
        first = np.zeros(len(cnt), dtype=np.int32)
        first[run[head]] = col[head]
        chunk = np.empty_like(val)          # sample by sample, atom by atom
        chunk[(np.cumsum(cnt) - cnt)[run] + col - first[run]] = val
        vals.append(chunk)
        start[k0:k0 + len(ts)] = first.reshape(-1, n)
        length[k0:k0 + len(ts)] = cnt.reshape(-1, n)
        y_w[rows] = np.bincount(k * bd + col, weights=val * x_w[atom], minlength=len(ts) * bd)
        if len(out):
            y[rows] = (model.measure(out, full[out], ts) * scale).ravel()
    tail_res = float(np.linalg.norm(y))
    y += y_w
    if beta > 0:
        rng = np.random.default_rng(noise_seed)
        for blk in range(0, m * bd, bd):
            g = rng.standard_normal(bd)
            g *= beta / (np.linalg.norm(g) * np.sqrt(model.quad_weight))
            y[blk:blk + bd] += g * scale
    q = 1.0 / np.sqrt(model.density(samples))
    return SampledSystem(model=model, positions=positions, samples=samples,
                         q_weights=np.asarray(q, float), y=y, noise_bound=float(beta),
                         tail_residual=tail_res, runs=(start, length, vals))


def _population_pass(model, positions, nodes, wts, norm_nodes=()):
    """The Gram matrix of one quadrature rule, and the row norms at
    norm_nodes, from the runs of each node the rule visits (_CHUNK nodes per
    _runs call, read once); the Gram is _HitGram products, so it never holds
    a node's dense rows.  m samples at weights 1/(m f_nu) give the sampled
    normal matrix (1/m) sum_k f_nu(t_k)^-1 F_tk* F_tk.

    Where the model's rows have the square's symmetry on the window
    (model.symmetry; the fan beam's), the quarter turn P and the diagonal
    reflection D carry the rows at one node to the rows at another by a
    signed permutation, and two rules of n = 8p nodes visit one octant:
    - the model's uniform rule visits the sector k = 1 .. p - 1, folded by
      D (node k to 2p - k), the diagonal node k = p, folded by
      (1 + P)(1 + P^2) (P takes node k to k + 2p), and the four axis
      nodes, whose rows are not mapped copies of each other (a ray can run
      along a cell edge), so its Gram is
      G_axis + (1 + P)(1 + P^2)(G_diag + (1 + D) G_sector);
    - the half-step rule, the uniform rule shifted by half its step (the
      odd nodes of the 16p-node rule, each at weight 1/(8p)), has no node on
      an axis or a diagonal: it visits i = 0 .. p - 1 and folds by D (node i
      to 2p - 1 - i), P^2 and P (node i to i + 2p).
    Any other rule, or a model without the symmetry, visits every node.
    Each part is visited _CHUNK nodes at a time, with run values scaled by
    sqrt(w * quad_weight), one product per chunk (in any cell order), then
    folded in place, so no second n x n matrix is held.

    Returns the Gram and the (node, row norms) pairs in norm_nodes order.
    A visited node's norms are the model's atom_norms there, bit for bit
    (no model overrides MeasurementModel.atom_norms).  When norm_nodes are
    themselves the model's uniform rule of 8p nodes under the symmetry, a
    node off its first octant and off the axes takes the norms of its
    octant's node, permuted by the map that carries that node to it (a norm
    does not see the signs or the ray order).  Any node whose norms no
    visit gives reads model.atom_norms.
    """
    positions, nodes, wts = np.asarray(positions, dtype=int), np.asarray(nodes), np.asarray(wts)
    sym = model.symmetry(positions)
    parts = [(np.arange(len(nodes)), [])]       # (node indices, folds) of each part
    p, rem = divmod(len(nodes), 8)
    if sym is not None:
        turn, mirror = sym
        half_turn = (turn[0][turn[0]], turn[1] * turn[1][turn[0]])
    if sym is not None and p and not rem:
        fine, fine_wts = model.population_nodes(2 * len(nodes))
        if all(map(np.array_equal, (nodes, wts), model.population_nodes(len(nodes)))):
            parts = [(np.arange(1, p), [mirror]), (np.array([p]), [half_turn, turn]),
                     (np.arange(0, 8 * p, 2 * p), [])]
        elif np.array_equal(nodes, fine[1::2]) and np.array_equal(wts, 2.0 * fine_wts[1::2]):
            parts = [(np.arange(p), [mirror, half_turn, turn])]
    visited = {float(nodes[k]) for part, _ in parts for k in part}

    n = len(positions)
    wanted = []         # (node, image) of each norm node: its norms are the node's, at image
    octant, rem = divmod(len(norm_nodes), 8)
    by_symmetry = (sym is not None and octant > 0 and not rem and np.array_equal(
        norm_nodes, model.population_nodes(len(norm_nodes))[0]))
    for k, t in enumerate(norm_nodes):
        r, s = divmod(k, 2 * octant) if by_symmetry else (0, 0)
        if float(t) in visited or not s:    # a visited node, an axis node, or no symmetry
            wanted.append((float(t), None))
            continue
        image = np.arange(n)
        if s > octant:      # the reflection of node 2p - s, then r turns
            s, image = 2 * octant - s, mirror[0]
        for _ in range(r):
            image = turn[0][image]
        wanted.append((float(norm_nodes[s]), image))
    norms = dict.fromkeys(t for t, _ in wanted)

    bd = model.block_dim
    G, kernel = np.zeros((n, n)), _HitGram(n)
    for part, folds in parts:
        for k0 in range(0, len(part), _CHUNK):
            chunk = part[k0:k0 + _CHUNK]
            scale = np.sqrt(wts[chunk] * model.quad_weight)
            k, atom, col, val = map(np.concatenate, zip(*model._runs(positions, nodes[chunk])))
            kernel.add(G, len(chunk) * bd, k * bd + col, atom, val * scale[k])
            for i, t in enumerate(nodes[chunk]):
                if float(t) in norms:
                    norms[float(t)] = model._row_norms(n, atom[k == i], col[k == i], val[k == i])
        for image, sign in folds:
            _fold(G, image, sign)
    missing = [t for t, nr in norms.items() if nr is None]
    if missing:
        norms.update(zip(missing, model.atom_norms(positions, np.array(missing))))
    return G, [(t, norms[s] if image is None else norms[s][np.argsort(image)])
               for t, (s, image) in zip(norm_nodes, wanted)]


def _fold(G, image, sign):
    """G + P G, in place, for the signed permutation P of a Gram:
    (P G)[image_i, image_k] = sign_i sign_k G[i, k].  The signs are +-1,
    so only the addition rounds; with one n x n temporary."""
    inv = np.argsort(image)
    T, s = G[np.ix_(inv, inv)], sign[inv]
    T *= s[:, None]
    T *= s
    G += T


def population_gram_matrix(model, positions, n_quad: int) -> np.ndarray:
    """The normal operator <F phi_i, F phi_j> over the measurement family,
    by quadrature over the parameter space: the _population_pass of the
    model's n_quad-node rule."""
    return _population_pass(model, positions, *model.population_nodes(n_quad))[0]
