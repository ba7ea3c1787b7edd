"""Compactly supported separable 2D orthonormal wavelet dictionaries.

The dictionary is the standard tensor construction: a scaling layer
chi (x) chi at the base dilation, and three oriented wavelet layers
(psi chi, chi psi, psi psi) at dyadic dilations 2^j.  Scale 0 carries the
scaling atoms (orientation 0), scales j >= 1 carry orientations 1..3.  The
base dilation is 2, so a scale-j atom has side support_length * 2^-j and the
per-scale populations grow like 4^j already at small j.

An atom belongs to the dictionary iff its support box meets the open unit
disk.  Atoms are rasterized by dyadic refinement of the filter (cascade), as
outer products of two 1D profiles, each renormalized to unit discrete L2
norm, so the rasterized system is numerically orthonormal on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthonormal low-pass taps (sum = sqrt 2), computed once by spectral
# factorization of the half-band polynomial and frozen here.  Order = number
# of vanishing moments; support length of the generators is 2*order - 1.
DAUBECHIES_TAPS = {
    1: [0.7071067811865475, 0.7071067811865475],
    2: [0.48296291314453416, 0.8365163037378078, 0.22414386804201336,
        -0.1294095225512604],
    3: [0.33267055295008285, 0.8068915093110931, 0.4598775021184915,
        -0.1350110200102552, -0.0854412738820269, 0.03522629188570955],
    4: [0.23037781330889615, 0.7148465705529148, 0.6308807679298587,
        -0.02798376941685879, -0.18703481171909234, 0.03084138183556068,
        0.03288301166688512, -0.010597401785069],
    5: [0.16010239797419448, 0.6038292697971952, 0.7243085284377784,
        0.13842814590131866, -0.24229488706638821, -0.03224486958464143,
        0.07757149384004519, -0.00624149021279869, -0.01258075199908218,
        0.0033357252854738],
    6: [0.11154074335010923, 0.49462389039845295, 0.751133908021098,
        0.31525035170920385, -0.22626469396543644, -0.12976686756726524,
        0.09750160558731803, 0.027522865530303902, -0.031582039317486175,
        0.0005538422011613517, 0.0047772575109454535, -0.001077301085308464],
    7: [0.07785205408500917, 0.3965393194819181, 0.7291320908462392,
        0.46978228740520056, -0.14390600392856107, -0.22403618499387962,
        0.07130921926682331, 0.08061260915108018, -0.03802993693501529,
        -0.016574541630668127, 0.012550998556099056, 0.00042957797292128834,
        -0.0018016407040474679, 0.0003537137999745128],
    8: [0.054415842243147994, 0.3128715909145368, 0.6756307362977311,
        0.5853546836544005, -0.015829105256740587, -0.2840155429620316,
        0.00047248457385106466, 0.12874742662057628, -0.017369301001849746,
        -0.04408825393084458, 0.013981027917414231, 0.008746094047414586,
        -0.00487035299345681, -0.00039174037337722265, 0.0006754494064512888,
        -0.00011747678412489891],
}

BASE_DILATION = 2


class ConfigurationError(ValueError):
    """Unsupported or inconsistent construction parameters."""


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal filter pair generating the scaling / mother functions."""

    low_pass_taps: np.ndarray
    high_pass_taps: np.ndarray
    regularity_order: int
    support_length: int

    def __post_init__(self):
        object.__setattr__(self, "low_pass_taps", np.asarray(self.low_pass_taps, float))
        object.__setattr__(self, "high_pass_taps", np.asarray(self.high_pass_taps, float))


def build_filter(order: int) -> WaveletFilter:
    """Return the embedded orthonormal filter of the given order.

    Order 1 is the piecewise-constant system (exact on dyadic grids, used as
    the package default); orders >= 3 give continuously differentiable atoms
    and orders >= 6 twice continuously differentiable ones.
    """
    if order not in DAUBECHIES_TAPS:
        raise ConfigurationError(
            f"unsupported filter order {order}; available: {sorted(DAUBECHIES_TAPS)}")
    h = np.asarray(DAUBECHIES_TAPS[order], float)
    g = ((-1.0) ** np.arange(len(h))) * h[::-1]
    return WaveletFilter(
        low_pass_taps=h,
        high_pass_taps=g,
        regularity_order=order,
        support_length=len(h) - 1,
    )


@dataclass(frozen=True, order=True)
class AtomIndex:
    """Label (scale, translations, orientation) of a dictionary atom.

    Orientation 0 (pure scaling) appears only at scale 0; orientations 1..3
    (wavelet along x, along y, along both) appear at scales >= 1.
    """

    scale: int
    n1: int
    n2: int
    orientation: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be >= 0")
        if self.scale == 0 and self.orientation != 0:
            raise ValueError("scale 0 carries orientation 0 only")
        if self.scale >= 1 and self.orientation not in (1, 2, 3):
            raise ValueError("scales >= 1 carry orientations 1..3")


def dilation(scale: int) -> int:
    """Dyadic dilation of atoms at a scale (base dilation 2 at scale 0)."""
    return BASE_DILATION if scale == 0 else 2 ** scale


@dataclass(frozen=True)
class GridSpec:
    """Uniform square pixel grid, x0 + k*h in each direction, k = 0..npts-1."""

    x0: float
    h: float
    npts: int

    @property
    def coords(self) -> np.ndarray:
        return self.x0 + self.h * np.arange(self.npts)


def _cascade(filt: WaveletFilter, level: int):
    """Samples of the scaling and mother functions on [0, T] at step 2^-level."""
    h = filt.low_pass_taps
    L = len(h)
    T = L - 1
    if L == 2:
        # piecewise-constant generators are exact on any dyadic grid
        n = (1 << level) + 1
        x = np.arange(n) / (1 << level)
        chi = np.where(x < 1.0, 1.0, 0.0)
        psi = np.where(x < 0.5, 1.0, np.where(x < 1.0, -1.0, 0.0))
        return chi, psi
    # values at the integers: fixed vector of the downsampled refinement matrix
    M = np.zeros((T - 1, T - 1))
    for a in range(1, T):
        for b in range(1, T):
            k = 2 * a - b
            if 0 <= k < L:
                M[a - 1, b - 1] = np.sqrt(2.0) * h[k]
    evals, evecs = np.linalg.eig(M)
    v = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    v = v / v.sum()
    cur = np.zeros(T + 1)
    cur[1:T] = v
    for lev in range(1, level + 1):
        prev = cur
        n = T * (1 << lev) + 1
        cur = np.zeros(n)
        cur[::2] = prev
        odd = np.arange(1, n, 2)
        acc = np.zeros(len(odd))
        for j in range(L):
            pos = odd - j * (1 << (lev - 1))
            ok = (pos >= 0) & (pos < len(prev))
            acc[ok] += np.sqrt(2.0) * h[j] * prev[pos[ok]]
        cur[1::2] = acc
    chi = cur
    g = filt.high_pass_taps
    psi = np.zeros(len(chi))
    for j in range(L):
        pos = 2 * np.arange(len(chi)) - j * (1 << level)
        ok = (pos >= 0) & (pos < len(chi))
        psi[ok] += np.sqrt(2.0) * g[j] * chi[pos[ok]]
    return chi, psi


def _disk_members(d: int, T: int) -> list[tuple[int, int]]:
    """Translates (n1, n2) whose support box [n/d, (n+T)/d]^2 meets the unit disk."""
    ns = np.arange(-d - T + 1, d)
    lo = ns / d
    hi = (ns + T) / d
    dx = np.where(lo > 0, lo, np.where(hi < 0, -hi, 0.0))
    keep = dx[:, None] ** 2 + dx[None, :] ** 2 < 1.0
    return [(int(ns[i]), int(ns[k])) for i, k in zip(*np.nonzero(keep))]


class DictionaryAtlas:
    """A built dictionary: index set, grid, and per-atom 1D profile pairs.

    Immutable after construction; every accessor is pure, so instances can be
    shared freely across threads.
    """

    def __init__(self, filt: WaveletFilter, j_max: int, grid: GridSpec,
                 gamma: list[AtomIndex], profiles: dict):
        self.filter = filt
        self.j_max = j_max
        self.grid = grid
        self.gamma = list(gamma)
        self._profiles = profiles
        self.scales = np.array([a.scale for a in self.gamma])
        self.orientations = np.array([a.orientation for a in self.gamma])
        self.n1 = np.array([a.n1 for a in self.gamma])
        self.n2 = np.array([a.n2 for a in self.gamma])

    def __len__(self):
        return len(self.gamma)

    def scale_counts(self) -> np.ndarray:
        return np.bincount(self.scales, minlength=self.j_max + 1)

    def profile(self, scale: int, kind: str) -> np.ndarray:
        """Unit-norm 1D profile samples (step grid.h) for 'c' or 'p' factors."""
        return self._profiles[(scale, kind)]

    def profile_kinds(self, orientation: int) -> tuple[str, str]:
        kx = "c" if orientation in (0, 2) else "p"
        ky = "c" if orientation in (0, 1) else "p"
        return kx, ky

    def atom_profiles(self, idx: AtomIndex):
        """(fx, fy, i1, i2): 1D factors and their grid offsets (x0 + i*h)."""
        kx, ky = self.profile_kinds(idx.orientation)
        fx = self.profile(idx.scale, kx)
        fy = self.profile(idx.scale, ky)
        d = dilation(idx.scale)
        i1 = round((idx.n1 / d - self.grid.x0) / self.grid.h)
        i2 = round((idx.n2 / d - self.grid.x0) / self.grid.h)
        return fx, fy, int(i1), int(i2)

    def atom_patch(self, idx: AtomIndex):
        """Dense patch (outer product of the factors) and its grid offsets.

        The patch is indexed [iy, ix] to match image arrays.
        """
        fx, fy, i1, i2 = self.atom_profiles(idx)
        return np.outer(fy, fx), i1, i2

    @property
    def pad(self) -> float:
        """Maximal overhang of any dictionary atom beyond the unit square."""
        return self.filter.support_length / BASE_DILATION

    @property
    def support_radius(self) -> float:
        """Radius of a disk containing the support of every atom."""
        return float(np.hypot(1.0 + self.pad, 1.0 + self.pad))


def default_resolution(j_max: int) -> float:
    return 2.0 ** -(j_max + 3)


def build_atlas(filt: WaveletFilter, j_max: int, grid_resolution: float | None = None) -> DictionaryAtlas:
    """Enumerate the dictionary through scale j_max and rasterize the profiles.

    grid_resolution must be a dyadic step no coarser than 2^-(j_max + 2)
    (four samples per finest oscillation); the default gives eight.
    """
    if j_max < 0:
        raise ConfigurationError("j_max must be >= 0")
    h = default_resolution(j_max) if grid_resolution is None else float(grid_resolution)
    if h > 2.0 ** -(j_max + 2) + 1e-15:
        raise ConfigurationError(
            f"grid_resolution {h} too coarse for j_max={j_max}; need <= {2.0**-(j_max+2)}")
    lev_h = np.log2(1.0 / h)
    if abs(lev_h - round(lev_h)) > 1e-9:
        raise ConfigurationError("grid_resolution must be a dyadic step 2^-k")
    T = filt.support_length
    pad = T / BASE_DILATION
    x0 = -(1.0 + pad)
    npts = int(round(2.0 * (1.0 + pad) / h)) + 1
    grid = GridSpec(x0=x0, h=h, npts=npts)

    gamma: list[AtomIndex] = []
    profiles: dict = {}
    for j in range(j_max + 1):
        d = dilation(j)
        level = int(round(np.log2(1.0 / (h * d))))
        chi, psi = _cascade(filt, level)
        for kind, arr in (("c", chi), ("p", psi)):
            prof = arr * np.sqrt(d)
            prof = prof / np.sqrt(h * np.sum(prof * prof))
            profiles[(j, kind)] = prof
        members = _disk_members(d, T)
        orients = (0,) if j == 0 else (1, 2, 3)
        for n1, n2 in members:
            for e in orients:
                gamma.append(AtomIndex(scale=j, n1=n1, n2=n2, orientation=e))
    return DictionaryAtlas(filt, j_max, grid, gamma, profiles)


def truncation_positions(atlas: DictionaryAtlas, j0: int) -> np.ndarray:
    """Positions (into atlas.gamma) of the scale <= j0 atoms."""
    if j0 > atlas.j_max or j0 < 0:
        raise ValueError(f"j0={j0} out of range for atlas j_max={atlas.j_max}")
    return np.flatnonzero(atlas.scales <= j0)


def analysis(atlas: DictionaryAtlas, image: np.ndarray) -> np.ndarray:
    """Grid inner products <image, atom> with quadrature weight h^2, one per
    atlas atom."""
    image = np.asarray(image, float)
    if image.shape != (atlas.grid.npts, atlas.grid.npts):
        raise ValueError(f"image shape {image.shape} does not match atlas grid")
    h2 = atlas.grid.h ** 2
    out = np.empty(len(atlas))
    for k, idx in enumerate(atlas.gamma):
        fx, fy, i1, i2 = atlas.atom_profiles(idx)
        block = image[i2:i2 + len(fy), i1:i1 + len(fx)]
        out[k] = h2 * (fy @ block @ fx)
    return out


def synthesis(atlas: DictionaryAtlas, coeffs) -> np.ndarray:
    """Superpose coefficients (one per atlas atom) times rasterized atoms into
    a pixel image; zero coefficients are skipped."""
    c = np.asarray(coeffs, float)
    if len(c) != len(atlas):
        raise ValueError(f"{len(c)} coefficients for {len(atlas)} atoms")
    img = np.zeros((atlas.grid.npts, atlas.grid.npts))
    for k, idx in enumerate(atlas.gamma):
        if c[k] == 0.0:
            continue
        fx, fy, i1, i2 = atlas.atom_profiles(idx)
        img[i2:i2 + len(fy), i1:i1 + len(fx)] += c[k] * np.outer(fy, fx)
    return img


def image_norm(atlas: DictionaryAtlas, image: np.ndarray) -> float:
    """Discrete L2 norm with the atlas grid quadrature weight."""
    return float(atlas.grid.h * np.sqrt(np.sum(np.asarray(image) ** 2)))


def discrete_gram(atlas: DictionaryAtlas) -> np.ndarray:
    """Gram matrix of the rasterized atlas atoms under the grid inner product.

    Exploits separability: the 2D entry is the product of two 1D profile
    inner products, so only a small cross-Gram of deduplicated 1D factors is
    ever accumulated.
    """
    h = atlas.grid.h
    n = len(atlas)
    axes: list[tuple[np.ndarray, int]] = []
    seen: dict = {}
    ax_x = np.empty(n, dtype=int)
    ax_y = np.empty(n, dtype=int)
    for k, idx in enumerate(atlas.gamma):
        kx, ky = atlas.profile_kinds(idx.orientation)
        _, _, i1, i2 = atlas.atom_profiles(idx)
        for kind, off, store in ((kx, i1, ax_x), (ky, i2, ax_y)):
            key = (idx.scale, kind, off)
            if key not in seen:
                seen[key] = len(axes)
                axes.append((atlas.profile(idx.scale, kind), off))
            store[k] = seen[key]
    m = len(axes)
    O = np.zeros((m, m))
    for a in range(m):
        fa, oa = axes[a]
        for b in range(a, m):
            fb, ob = axes[b]
            lo = max(oa, ob)
            hi = min(oa + len(fa), ob + len(fb))
            if hi > lo:
                O[a, b] = O[b, a] = h * np.dot(fa[lo - oa:hi - oa], fb[lo - ob:hi - ob])
    return O[np.ix_(ax_x, ax_x)] * O[np.ix_(ax_y, ax_y)]
