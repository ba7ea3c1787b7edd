"""Measurement models and sampled systems.

Four concrete models share one interface, the MeasurementModel base:
parallel-beam line integrals at an angle, fan-beam line integrals from a
source on a circle, Fourier coefficients of periodized 1D wavelets, and
pointwise evaluation of orthonormal Legendre polynomials.  Each model knows
its dictionary, its sampling density, and how to produce the measurement
block of a batch of dictionary elements at one parameter value, also as the
support runs of its rows at a batch of parameter values.  The Radon model
builds rows one scale at a time: a scale's orientations share one pass of
profile interpolation for a chunk of angles and, on a window, one run
geometry, and each orientation's runs are its values at the shared cells;
the fan-beam model, which takes Haar atoms only, finds the rays that meet
each support box and their chords through its cells once per dilation and
chunk of angles for all the groups on those boxes, then takes each group's
exact chord-length line integrals from them.  Both cut every run to the
span where the row is nonzero; rows leave an atlas model only as these runs,
and sums of rows (_data) as their bincounts, except the Radon model's: its
rows resample one profile per group at a fixed fraction of a grid step, so
their sums are lattice deposits correlated with the profiles.
A system of random samples is assembled a chunk of samples at a time and
keeps its stacked operator A as those runs, with quadrature weights and
1/sqrt(m) folded in, so plain Euclidean norms of stacked vectors equal the
(1/m)-averaged measurement-space norms.  One kernel, _gram, multiplies the
rows a chunk of runs touches for every Gram: the solver's by samples in
angle order, the population Gram and the sampled normal matrix by the nodes
of one rule per pass.  Each product is dense, or a band that follows the
runs where their geometry shows it takes at most a third of the dense
volume (compactly supported atoms at nearby angles); each adds every pair
of atoms to one side of the Gram, which _gram mirrors once at the end, so
every Gram is exactly symmetric.  The fan-beam rows at
source angles theta + pi/2 and pi/2 - theta are the rows at theta, signed
and permuted (FanBeamModel.symmetry, the square's quarter turn and diagonal
reflection), so its pass over a uniform rule visits one octant and the four
axis nodes, its pass over the half-step rule one octant, and each folds its
products by the square's eight symmetries: the Gram is exactly invariant
under them.  The whole dense A is built only for short solves and tests.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def _runs(self, positions, ts):
        """(parameter, row, column, value) arrays of the rows' runs at each
        parameter of ts, as AtlasModel._runs yields them: here one group per
        parameter, whose runs are the whole rows."""
        for k, t in enumerate(ts):
            R = self.rows(positions, t)
            atom, col = np.indices(R.shape)
            yield np.full(R.size, k), atom.ravel(), col.ravel(), R.ravel()

    def _data(self, positions, x, ts) -> np.ndarray:
        """The blocks sum_i x_i rows_i of coefficients x over positions at
        each parameter of ts, (len(ts), block_dim): one bincount per group of
        the rows' runs, summed into a zero block."""
        bd = self.block_dim
        out = np.zeros(len(ts) * bd)
        for k, atom, col, val in self._runs(positions, ts):
            out += np.bincount(k * bd + col, weights=val * x[atom], minlength=len(out))
        return out.reshape(len(ts), bd)

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
    `rows` scatters one angle's runs into a dense block; `assemble_system`
    keeps the window's runs and takes the tail's data from `_data`, and
    every Gram and the coherence norms read the runs.
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


def _nonzero_core(cnt, val):
    """Mask of the cells of each run from its first to its last nonzero
    value, or None when every run already starts and ends on one.  Run i is
    the cnt_i consecutive cells of val after runs 0 .. i - 1.  Only the runs
    with a zero end are expanded (_run_cells) and scanned (_nonzero_span);
    every other run keeps all its cells."""
    stop = np.cumsum(cnt)
    start = stop - cnt
    cut = np.flatnonzero(cnt > 0)
    cut = cut[(val[start[cut]] == 0) | (val[stop[cut] - 1] == 0)]
    if not len(cut):
        return None
    sub, cell = _run_cells(start[cut], cnt[cut])
    first, n = _nonzero_span(sub, val[cell], len(cut))
    i = np.arange(len(cell)) - first[sub]
    keep = np.ones(len(val), dtype=bool)
    keep[cell] = (0 <= i) & (i < n[sub])
    return keep


# ---------------------------------------------------------------------------
# parallel beam


def _convolved_base_rows(factors, pairs, c, s, h, out_grid):
    """Line-integral profiles of the separable bumps f_x (x) f_y, one for each
    (x kind, y kind) pair of `pairs` with factors[kind] its samples, along
    the direction angles with cosines c and sines s, (k,) arrays, each
    evaluated on its row of out_grid, (k, L).

    Writes the integral as a 1D convolution of the two stretched factors and
    evaluates it by sampling the wider factor at the narrower factor's cell
    midpoints, weighted by the narrow factor's trapezoid cell masses.  The
    degenerate near-axis case (one stretch collapsing to a point mass) needs
    no special handling under this scheme.  Which factor is wider depends on
    the angle, so the angles of each case take one pass together.  Every
    kind's factor has the same length (the atlas's c and p profiles do at
    each scale), so which axis is wider and the sample points do not depend
    on the pair: each kind is interpolated once per case, for every pair
    whose wide factor it is.
    """
    n = len(factors[pairs[0][0]])
    wx = wy = (n - 1) * h
    x_wide = np.abs(c) * wx >= np.abs(s) * wy
    outs = [np.empty(out_grid.shape) for _ in pairs]
    for sel, aw, an, axis in ((x_wide, c, s, 0), (~x_wide, s, c, 1)):
        if not sel.any():
            continue
        if sel.all():       # one case holds every angle: index by a view
            sel = slice(None)
        aw, an = aw[sel, None, None], an[sel, None, None]
        centers = an * h * (np.arange(n - 1) + 0.5)
        P = (out_grid[sel, :, None] - centers) / aw
        V = {kind: np.interp(P, np.arange(n) * h, factors[kind], left=0.0, right=0.0)
             for kind in {pair[axis] for pair in pairs}}
        for out, pair in zip(outs, pairs):
            nar = factors[pair[1 - axis]]
            masses = 0.5 * h * (nar[:-1] + nar[1:])
            out[sel] = (V[pair[axis]] * masses).sum(axis=2) / np.abs(aw[:, :, 0])
    return outs


class RadonModel(AtlasModel):
    """Line-integral measurements of atlas atoms at angles in [0, 2pi).

    The angle distribution is uniform, the per-angle measurement space is the
    s-offset grid with trapezoid weight s_step.  Rows come one scale at a
    time (_runs): the scale's orientations share their profile
    interpolation (_scale_base) and, where their atoms share translations,
    one run geometry, and each orientation's values at the shared cells are
    cut to its runs, bit for bit the runs of one group at a time.  Sums of
    rows (_data, the assembly's tail data) take the same passes but no
    runs: deposits of the coefficients on the profile grid, correlated
    with each profile.
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

    def _scale_base(self, scale: int, orientations, theta, fine_step: float):
        """Offset grids and line-integral profiles of one scale's
        orientations at a vector of angles theta: row k of the grid and of
        each orientation's profile holds angle k's, padded to the longest.
        The grid depends on the scale only, and continues the progression
        np.arange fills, start + i * ((start + step) - start); each profile,
        0 past its support, reads 0 on the padding.  (np.arange sets node 1
        to start + step, the same number here: start <= -step, so (start +
        step) - start is exact.)"""
        c, s = np.cos(theta), np.sin(theta)
        pairs = [self.atlas.profile_kinds(o) for o in orientations]
        factors = {kind: self.atlas.profile(scale, kind) for pair in pairs for kind in pair}
        # each angle's grid covers the support, one fine step before it and
        # two after
        w = self.atlas.filter.support_length / dilation(scale)
        wc, ws = w * c, w * s
        start = np.minimum(0.0, wc) + np.minimum(0.0, ws) - fine_step
        stop = np.maximum(0.0, wc) + np.maximum(0.0, ws) + 2.0 * fine_step
        index = np.arange(np.ceil((stop - start) / fine_step).astype(int).max())
        grid = start[:, None] + index * ((start + fine_step) - start)[:, None]
        return grid, _convolved_base_rows(factors, pairs, c, s, self.atlas.grid.h, grid)

    def _passes(self, positions, thetas):
        """(groups, grid, bases, shifts) of each run of consecutive (scale,
        orientation) groups of one scale whose atoms sit on the same
        translations, in the same order (a scale's three orientations on a
        window): they share their offset grid and profile pass
        (_scale_base, on the half-step grid) and their atoms' offset shifts
        at each angle, (len(thetas), atoms).  Groups that do not take one
        pass each."""
        c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
        n1, n2 = self.atlas.n1[positions], self.atlas.n2[positions]

        def geometry(group):
            scale, _, sel = group
            return scale, n1[sel].tobytes(), n2[sel].tobytes()

        for (scale, *_), groups in itertools.groupby(self._groups(positions), geometry):
            groups = list(groups)
            sel = groups[0][2]
            grid, bases = self._scale_base(scale, [o for _, o, _ in groups], thetas,
                                           self.s_step / 2.0)
            yield groups, grid, bases, (n1[sel] * c + n2[sel] * s) / dilation(scale)

    def _runs(self, positions, thetas):
        """(angle, atom, offset, value) arrays of each (scale, orientation)
        group at a batch of angles, in group order; callers pass at most
        _CHUNK angles at a time.

        The groups of one pass (_passes) share one run geometry.  Atoms of
        one group share one base profile per angle; each atom's row is that
        profile resampled at its own offset shift.  A profile is nonzero
        only on the open interval between the grid nodes glo and ghi around
        its nonzero values; over the union of the groups' intervals, a row
        is nonzero on one run of offsets only: those whose sample point P =
        offset - shift, the point interp reads, passes glo < P < ghi.
        Rounding can move the ends of the run by one offset from where the
        arithmetic puts them, so the exact test is made on the candidates
        next to each end.  Each group's values at the runs' points then take
        one interp call per angle, on that angle's own profile grid; outside
        its own interval a group's profile reads exact zeros.  Each run is
        then cut to the span from its first to its last nonzero value (an
        exact zero of the profile inside its interval can still end a run,
        and a run outside it holds zeros only): it drops only exact zeros."""
        thetas = np.atleast_1d(np.asarray(thetas, float))
        sg = self.s_grid
        top, zero = len(sg) - 1, len(sg) // 2       # sg = s_step * (index - zero)
        for groups, grid, bases, shifts in self._passes(positions, thetas):
            n = shifts.shape[1]
            nz = np.logical_or.reduce([base != 0.0 for base in bases])
            live = np.flatnonzero(nz.any(axis=1))      # angles where some profile is not all 0
            nz, shifts = nz[live], shifts[live]
            glo = grid[live, nz.argmax(axis=1) - 1][:, None]
            ghi = grid[live, nz.shape[1] - nz[:, ::-1].argmax(axis=1)][:, None]
            # the first offset with P > glo, and one past the last with P < ghi
            i = np.floor((shifts + glo) / self.s_step).astype(int) + zero
            j = np.ceil((shifts + ghi) / self.s_step).astype(int) + zero - 1
            for _ in range(2):
                i += sg.take(i, mode="clip") - shifts <= glo
                j += sg.take(j, mode="clip") - shifts < ghi
            first = np.maximum(i, 0).ravel()
            cnt = np.maximum(np.minimum(j, top + 1).ravel() - first, 0)
            owner, col = _run_cells(first, cnt)
            P = sg[col] - shifts.ravel()[owner]
            ends = np.cumsum(np.append(0, cnt.reshape(len(live), n).sum(axis=1)))
            angle, t = np.repeat(live, np.diff(ends)), owner % n
            for (*_, gsel), base in zip(groups, bases):
                val = np.empty(len(P))
                for a, k in enumerate(live):
                    cut = slice(ends[a], ends[a + 1])
                    val[cut] = np.interp(P[cut], grid[k], base[k], left=0.0, right=0.0)
                keep = _nonzero_core(cnt, val)
                if keep is None:
                    yield angle, gsel[t], col, val
                else:
                    yield angle[keep], gsel[t[keep]], col[keep], val[keep]

    def _data(self, positions, x, thetas):
        """The blocks sum_i x_i rows_i at a vector of angles, (len(thetas),
        block_dim), without runs.

        At angle k an atom's row reads its group's profile b, sampled on the
        grid start + g * step (step = (start + s_step/2) - start, as
        _scale_base lays it out), at the points P_i = s_step * (i - zero) -
        shift, one per offset i.  Consecutive offsets lie two grid steps
        apart, so every P_i sits one fraction f of a step past the node g_i
        = J + 2 (i - i0), J and f read as interp reads them at the offset i0
        nearest the shift, and the row is (1 - f) b[g_i] + f b[g_i + 1].  A
        group's sum at angle k is then its profile correlated at stride 2
        with two bincount deposits, x (1 - f) at each atom's J and x f at J
        + 1: one einsum over the deposits' stride-2 windows.  It matches the
        runs' sum to about 1e-15 of each block's largest entry; the two
        round in different orders."""
        thetas = np.atleast_1d(np.asarray(thetas, float))
        K, bd, zero = len(thetas), self.block_dim, self.block_dim // 2
        out = np.zeros((K, bd))
        for groups, grid, bases, shifts in self._passes(positions, thetas):
            L = grid.shape[1]
            start = grid[:, :1]
            step = (start + self.s_step / 2.0) - start
            near = np.rint(shifts / self.s_step)         # i0 - zero
            P = self.s_step * near - shifts
            J = np.floor((P - start) / step)
            f = (P - (start + J * step)) / step
            # deposit r meets node 2 i + L - 1 - r at offset i, so J's r is
            # 2 i0 + L - 1 - J; outside [0, width) it meets no node
            r = (2.0 * (near + zero) + L - 1 - J).astype(int)
            width = 2 * bd + L - 2
            keys = r + width * np.arange(K)[:, None]
            at_J, at_J1 = (0 <= r) & (r < width), (1 <= r) & (r <= width)
            for (*_, gsel), base in zip(groups, bases):
                w = np.broadcast_to(x[gsel], r.shape)
                D = (np.bincount(keys[at_J], (w * (1.0 - f))[at_J], K * width)
                     + np.bincount(keys[at_J1] - 1, (w * f)[at_J1], K * width))
                # offset i's window of D, read backwards, meets nodes 0 .. L - 1
                windows = sliding_window_view(D.reshape(K, width), L, axis=1)[:, ::2]
                out += np.einsum("kig,kg->ki", windows, base[:, ::-1])
        return out


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
                keep = _nonzero_core(cnt[bp], val)    # a zero value may still end a run
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


_CHUNK = 16      # parameters per batch of _runs, samples or nodes per _gram product
_NORM_ENTRIES = 2 ** 18     # entries per dense block of rows that _row_norms sums


_BAND = 64       # atoms per block of a band product
_BAND_SHARE = 1 / 3  # a band product is taken at most at this share of the dense one's volume
_MAP_BYTES = 2 ** 22  # a Gram's row block from this size up gets a mapping of its own


def _gram(n, block_dim, chunks):
    """The one Gram kernel over support runs: (H, b), the sums of C^T C and
    C^T y over chunks of (n_rows, row, atom, val, y or None), C the rows of
    a chunk of n_rows rows (block_dim per parameter) that some cell of its
    runs touches (the others add nothing), scattered into the head of one
    reused zero block, grown to the most rows a chunk has touched
    (_zero_block).

    Every product adds each pair of atoms once, on one side of H, and
    _settle sums the two sides into both at the end, so H is exactly
    symmetric.  The dense product, C^T C over the hit rows in row order (k
    n^2 / 2 multiply-adds for k hit rows), adds its upper triangle; numpy
    returns it exactly symmetric, so dense products alone give their sum
    bit for bit.  The band product follows the runs: a compactly supported
    atom's run covers a few offsets, which move little across a chunk of
    nearby parameters.  With the hit rows ordered by offset (then
    parameter) and the atoms by the midpoint of the rows their runs span, C
    is banded; each block of _BAND consecutive atoms multiplies its
    columns, over the rows its runs span only, by the columns from its
    first atom to the last atom whose rows meet those (slices of the one
    block), and adds the pairs into H through the chunk's atom order.  It
    is taken when its volume is at most _BAND_SHARE of the dense product's
    (_band): measured per chunk, it beat the dense product 1.3-2.9x at
    volume shares 0.09-0.26 (the Radon and fan-beam j0 >= 3 windows) and
    tied or lost at 0.45-2.0 (every j0 <= 2 window), whose products so stay
    dense.
    """
    H, b = np.zeros((n, n)), np.zeros(n)
    block, upper = np.zeros((0, n)), None
    for n_rows, row, atom, val, y in chunks:
        hit = np.zeros(n_rows, dtype=bool)
        hit[row] = True
        k = np.count_nonzero(hit)
        if len(block) < k:
            block = None                    # freed before its successor is made
            block = _zero_block(k, n)
        C = block[:k]
        flat = C.reshape(-1)
        band = _band(hit, row, atom, n, block_dim)
        if band is None:
            cell = (np.cumsum(hit) - 1)[row] * n + atom    # in C, whose rows are the hit rows
            flat[cell] = val
            if upper is None:
                upper = np.triu(np.ones((n, n), dtype=bool))
            np.add(H, C.T @ C, out=H, where=upper)
            if y is not None:
                b += C.T @ y[hit]
        else:
            rows, cell, order, blocks = band
            cell *= n
            cell += np.argsort(order)[atom]             # each atom's place in the order
            flat[cell] = val
            tri = np.triu(np.ones((_BAND, _BAND)))
            for b0, b1, r0, r1, c1 in blocks:
                P = C[r0:r1, b0:b1].T @ C[r0:r1, b0:c1]
                # the block's own pairs once: P's first square adds its
                # upper triangle, and zeros below it
                P[:, :b1 - b0] *= tri[:b1 - b0, :b1 - b0]
                H[order[b0:b1, None], order[b0:c1]] += P
            if y is not None:
                b[order] += C.T @ y[rows]
        flat[cell] = 0.0
        C = flat = row = atom = val = y = cell = band = None  # freed before the next chunk
    _settle(H)
    return H, b


def _zero_block(k, n):
    """A (k, n) zero block.  From _MAP_BYTES up it sits on an anonymous
    mapping of its own, whose pages go back to the system when it is
    dropped: from the C heap, the blocks a Gram grows out of stayed
    resident, and a recon-tail run's peak moved by up to 7 MiB with how
    later arrays fell into them.  certify-fan's 2-3 MB blocks stay on
    np.zeros: fresh pages made its report 17% slower."""
    if 8 * k * n < _MAP_BYTES:
        return np.zeros((k, n))
    return np.frombuffer(mmap.mmap(-1, 8 * k * n, access=mmap.ACCESS_COPY)).reshape(k, n)


def _band(hit, row, atom, n, block_dim):
    """The band product's plan for a chunk's cells, or None when its volume
    exceeds _BAND_SHARE of the dense product's: (the hit rows in offset
    order, each cell's row there, the atom order, and (b0, b1, r0, r1, c1)
    per block of atoms b0:b1, its rows r0:r1 and its columns b0:c1)."""
    per = len(hit) // block_dim
    by_offset = hit.reshape(per, -1).T.ravel()      # the rows, offset by offset
    rank = (np.cumsum(by_offset) - 1).reshape(-1, per).T.ravel()[row]
    # the rows each atom's runs span there, from the ends of the stretches
    # of consecutive cells of one atom whose rank rises (each run lies in
    # one, so their ends hold its extremes), in any cell order; atoms
    # without a cell go last
    head, tail = np.ones(len(row), dtype=bool), np.ones(len(row), dtype=bool)
    head[1:] = tail[:-1] = (rank[1:] < rank[:-1]) | (atom[1:] != atom[:-1])
    head, tail = np.flatnonzero(head), np.flatnonzero(tail)
    lo, hi = np.full(n, len(hit)), np.full(n, -1)
    np.minimum.at(lo, atom[head], rank[head])
    np.maximum.at(hi, atom[tail], rank[tail])
    hi += 1
    order = np.argsort(np.where(hi > 0, lo + hi, 2 * len(hit)), kind="stable")
    lo, hi = lo[order], hi[order]
    b0 = np.arange(0, n, _BAND)
    r0, r1 = np.minimum.reduceat(lo, b0), np.maximum.reduceat(hi, b0)
    touch = (lo < r1[:, None]) & (hi > r0[:, None])
    b1 = np.minimum(b0 + _BAND, n)
    c1 = np.maximum(n - touch[:, ::-1].argmax(axis=1), b1)
    live = r1 > r0
    volume = ((r1 - r0) * (b1 - b0) * (c1 - b0))[live].sum()
    if volume > _BAND_SHARE * np.count_nonzero(hit) * n * n / 2:
        return None
    keys = np.flatnonzero(by_offset)
    blocks = zip(b0[live], b1[live], r0[live], r1[live], c1[live])
    return (keys % per) * block_dim + keys // per, rank, order, blocks


def _settle(H):
    """H[i, j] + H[j, i] into both entries, i != j, in place, a block of rows
    at a time: a Gram whose products added each pair to one side holds
    their sum on both."""
    n = len(H)
    for i0 in range(0, n, _BAND):
        i1 = min(i0 + _BAND, n)
        s = H[i0:i1, i0:] + H[i0:, i0:i1].T
        np.fill_diagonal(s, np.diag(H)[i0:i1])        # the diagonal, once
        H[i0:i1, i0:] = s
        H[i0:, i0:i1] = s.T


class SampledSystem:
    """A drained measurement setup: samples, per-sample density weights, the
    stacked (equally weighted) measurement vector y, and the stacked sampling
    operator A with 1/sqrt(m) and quadrature weights folded in.

    A is held as support runs: per (sample, atom), the first row of the
    atom's run in the sample's block and the run's length, and per chunk of
    _CHUNK samples the runs' values, sample by sample and atom by atom.  The
    chunks take the samples in angle order (assemble_system's), kept as
    the chunks' sample indices; A's rows stay in sample order.
    Every reader of A reads the runs: `gram` through _gram, `matvec` by
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
                    [blocks[k0:k0 + _CHUNK].ravel() for k0 in range(0, self.m, _CHUNK)],
                    np.arange(self.m))
        self._start, self._len, self._vals, self._order = runs

    @property
    def m(self) -> int:
        return len(self.samples)

    @property
    def shape(self) -> tuple:
        return (self.m * self.block_dim, len(self.positions))

    def _cells(self):
        """(rows, row, atom, value) of each stored chunk of _CHUNK samples:
        the indices of the chunk's stacked rows, and its runs' cells with
        their row inside the chunk."""
        bd, n = self.block_dim, self.shape[1]
        for c, k0 in enumerate(range(0, self.m, _CHUNK)):
            ks = self._order[k0:k0 + _CHUNK]
            first = self._start[ks] + bd * np.arange(len(ks))[:, None]
            owner, row = _run_cells(first.ravel(), self._len[ks].ravel())
            yield (ks[:, None] * bd + np.arange(bd)).ravel(), row, owner % n, self._vals[c]

    def dense_chunks(self):
        """(rows, block) of each chunk of _CHUNK samples: the indices of its
        stacked rows and those rows of A, dense.  The block is a view of one
        buffer that the next step rewrites; a consumer may scale it in place."""
        buf = np.zeros((min(_CHUNK, self.m) * self.block_dim, self.shape[1]))
        for rows, row, atom, val in self._cells():
            block = buf[:len(rows)]
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
        """(col A^T A col, col A^T y), accumulated by _gram one stored chunk
        at a time, so A is never held dense.  The chunks take the samples in
        angle order, where an atom's runs sit at nearby offsets: on a window
        of short runs (j0 >= 3) each product follows the runs (_gram's band
        product); elsewhere it is dense."""
        chunks = ((len(rows), row, atom, val, y[rows]) for rows, row, atom, val in self._cells())
        H, b = _gram(self.shape[1], self.block_dim, chunks)
        H *= col[:, None]
        H *= col[None, :]
        return H, col * b

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x from the runs."""
        out = np.empty(self.shape[0])
        for rows, row, atom, val in self._cells():
            out[rows] = np.bincount(row, weights=val * x[atom], minlength=len(rows))
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
    time in angle order (so that the Gram's products can follow the runs):
    `model._runs` yields the chunk's rows over the window as support runs
    (for the Radon model, each cut to the span where its profile is
    nonzero), which are kept already scaled, sample by sample and atom by
    atom; A is never written dense.  Each sample's rows and data are those
    of its own parameter, whatever chunk it falls in.  The data is A
    applied to the in-window coefficients plus the tail's, the chunk's
    `model._data` over the signal's out-of-window atoms (for the Radon
    model lattice deposits correlated with the profiles, elsewhere one
    bincount per group of their runs), then scaled; tail_residual is the
    tail data's norm.  beta must be finite and >= 0.
    """
    positions = np.asarray(positions, dtype=int)
    samples = np.asarray(samples, dtype=float)
    m, n = len(samples), len(positions)
    if m < 1:
        raise ValueError("m must be >= 1")
    if x_full is not None and len(x_full) != model.dictionary_size():
        raise ValueError(f"x_full has {len(x_full)} coefficients, the dictionary "
                         f"{model.dictionary_size()}")
    if not np.isfinite(beta) or beta < 0:
        raise ValueError(f"noise bound must be finite and >= 0, not {beta}")
    if n < 1 or len(np.unique(positions)) != n:
        raise ValueError("positions must be nonempty and must not repeat")
    scale = np.sqrt(model.quad_weight / m)
    bd = model.block_dim
    full = np.zeros(0) if x_full is None else np.asarray(x_full, float)
    out = np.setdiff1d(np.flatnonzero(full), positions)
    x_w = full[positions] if x_full is not None else np.zeros(n)
    x_out = full[out]
    start = np.zeros((m, n), dtype=np.int32)
    length = np.zeros((m, n), dtype=np.int32)
    vals = []
    y, y_w = np.zeros(m * bd), np.zeros(m * bd)
    order = np.argsort(samples, kind="stable")
    for k0 in range(0, m, _CHUNK):
        ks = order[k0:k0 + _CHUNK]
        ts = samples[ks]
        rows = (ks[:, None] * bd + np.arange(bd)).ravel()
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
        start[ks] = first.reshape(-1, n)
        length[ks] = cnt.reshape(-1, n)
        y_w[rows] = np.bincount(k * bd + col, weights=val * x_w[atom], minlength=len(ts) * bd)
        if len(out):
            y[rows] = (model._data(out, x_out, ts) * scale).ravel()
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
                         tail_residual=tail_res, runs=(start, length, vals, order))


def _fold_plan(model, positions, nodes, wts):
    """(maps, visit, share) of the population pass of the rule (nodes,
    wts): the square's symmetry maps (model.symmetry's) that the pass folds
    its Gram by, or None, the nodes it visits, and their weights' share of
    the rule's.  The pass folds by it and returns its maps, from which
    certify builds its symmetry blocks.

    Where the model's rows have the square's symmetry on the window (the
    fan beam's), the quarter turn P and the diagonal reflection D carry the
    rows at one node to the rows at another by a signed permutation, and
    two rules of n = 8p nodes visit one octant and fold it by the whole
    group, (1 + P)(1 + P^2)(1 + D), which sums the eight signed permutations
    (P takes node k to k + 2p):
    - the model's uniform rule visits the nodes k = 1 .. p and its four
      axis nodes.  A sector node k < p has an orbit of 8 nodes and keeps
      its weight w; the diagonal node p (D takes node k to 2p - k) has an
      orbit of 4 and takes w / 2; each axis node takes w / 8.  The axis
      rows are not mapped copies of each other (a ray can run along a cell
      edge), so the folded Gram is the group average of the rule's own
      Gram, (1/8) sum_g g G g^T;
    - the half-step rule, the uniform rule shifted by half its step (the
      odd nodes of the 16p-node rule, each at weight 1/(8p)), has no node on
      an axis or a diagonal: it visits i = 0 .. p - 1 (D takes node i to
      2p - 1 - i), and its folded Gram is the rule's own.
    Any other rule, or a model without the symmetry, visits every node.
    The rule check comes first, and the symmetry is built only for a rule
    that folds."""
    p, rem = divmod(len(nodes), 8)
    if p and not rem:
        fine, fine_wts = model.population_nodes(2 * len(nodes))
        uniform = all(map(np.array_equal, (nodes, wts), model.population_nodes(len(nodes))))
        half_step = (not uniform and np.array_equal(nodes, fine[1::2])
                     and np.array_equal(wts, 2.0 * fine_wts[1::2]))
        maps = model.symmetry(positions) if uniform or half_step else None
        if maps is not None and half_step:
            return maps, np.arange(p), 1.0
        if maps is not None:    # the sector, the diagonal node and the axis nodes
            share = np.r_[np.ones(p - 1), 0.5, np.full(4, 0.125)]
            return maps, np.r_[1:p + 1, 0:8 * p:2 * p], share
    return None, np.arange(len(nodes)), 1.0


def _population_pass(model, positions, nodes, wts, norm_nodes=()):
    """The Gram matrix of one quadrature rule, one _gram call over the runs
    of the nodes of _fold_plan, _CHUNK nodes per _runs call (read once),
    with run values scaled by sqrt(w * quad_weight), so it never holds a
    node's dense rows; then folded in place by the plan's maps, if any (D,
    P^2, then P), each fold adding a symmetric matrix and its signed
    permutation, so the Gram stays exactly symmetric and is exactly
    invariant under P and D.  m samples at weights 1/(m f_nu) give the
    sampled normal matrix (1/m) sum_k f_nu(t_k)^-1 F_tk* F_tk.

    Returns the Gram, a (node, row norms) pair for each visited node of
    norm_nodes, in visit order, the norms read off the node's runs
    (_row_norms), and the plan's maps, so that no caller plans the rule
    again.  A norm node the rule does not visit gets no pair.
    """
    positions, nodes, wts = np.asarray(positions, dtype=int), np.asarray(nodes), np.asarray(wts)
    maps, visit, share = _fold_plan(model, positions, nodes, wts)
    wts = wts[visit] * share
    n, bd, wanted, norms = len(positions), model.block_dim, set(map(float, norm_nodes)), []

    def chunks():
        for k0 in range(0, len(visit), _CHUNK):
            ts = nodes[visit[k0:k0 + _CHUNK]]
            scale = np.sqrt(wts[k0:k0 + _CHUNK] * model.quad_weight)
            k, atom, col, val = map(np.concatenate, zip(*model._runs(positions, ts)))
            for i, t in enumerate(ts):
                if float(t) in wanted:
                    sel = k == i
                    norms.append((float(t), model._row_norms(n, atom[sel], col[sel], val[sel])))
            yield len(ts) * bd, k * bd + col, atom, val * scale[k], None

    G, _ = _gram(n, bd, chunks())
    if maps is not None:
        turn, mirror = maps
        for image, sign in (mirror, _compose(turn, turn), turn):
            _fold(G, image, sign)
    return G, norms, maps


def _compose(a, b):
    """The signed permutation a after b, each an (image, sign) pair."""
    return a[0][b[0]], b[1] * a[1][b[0]]


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
