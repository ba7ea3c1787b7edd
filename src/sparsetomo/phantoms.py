"""Test signals: exactly sparse coefficient vectors, smooth-plus-edge images,
and coefficient fields with a prescribed cross-scale tail decay."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wavelets import DictionaryAtlas, analysis, synthesis, truncation_positions


@dataclass(frozen=True)
class PhantomSpec:
    """What to synthesize: kind in {sparse, cartoon, tail}.

    sparse:  `s` nonzeros at positions drawn uniformly from the scale <= j0
             window, values of unit magnitude and uniform sign.
    cartoon: two smooth bumps plus an ellipse indicator inside the unit disk.
    tail:    a coefficient at every dictionary index, magnitude
             2^-(a + 1) j at scale j, random signs; the out-of-window energy
             then decays like 2^-(a j0).
    """

    kind: str
    s: int = 0
    a: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("sparse", "cartoon", "tail"):
            raise ValueError(f"unknown phantom kind {self.kind!r}")


def sparse_phantom(atlas: DictionaryAtlas, j0: int, s: int, seed: int = 0):
    """Exactly s-sparse unit-magnitude coefficients on the scale <= j0 window."""
    window = truncation_positions(atlas, j0)
    if s > len(window):
        raise ValueError(f"s={s} exceeds window size {len(window)}")
    rng = np.random.default_rng(seed)
    x = np.zeros(len(atlas))
    if s > 0:
        pos = rng.choice(window, size=s, replace=False)
        x[pos] = rng.choice([-1.0, 1.0], size=s)
    return x


def tail_phantom(atlas: DictionaryAtlas, a: float, seed: int = 0):
    """Random-sign coefficients whose scale-j layer carries total energy
    4^-(a j), so the out-of-window norm decays like 2^-(a j0).

    On an ideal dictionary the per-scale population is 4^j and the per-atom
    magnitude reduces to 2^-(a+1) j; the boundary-trimmed populations here
    are normalized away so the tail law stays exact."""
    rng = np.random.default_rng(seed)
    counts = atlas.scale_counts().astype(float)
    js = atlas.scales.astype(float)
    mag = 2.0 ** (-a * js) / np.sqrt(counts[atlas.scales])
    return mag * rng.choice([-1.0, 1.0], size=len(atlas))


def _bump(X, Y, cx, cy, r, amp):
    d2 = ((X - cx) ** 2 + (Y - cy) ** 2) / r ** 2
    out = np.zeros_like(X)
    inside = d2 < 1.0
    out[inside] = amp * np.exp(1.0 - 1.0 / (1.0 - d2[inside]))
    return out


def cartoon_phantom(atlas: DictionaryAtlas):
    """Piecewise-smooth image: two compactly supported smooth bumps and one
    ellipse indicator, all inside the unit disk."""
    c = atlas.grid.coords
    X, Y = np.meshgrid(c, c)
    img = _bump(X, Y, -0.35, 0.3, 0.45, 1.0)
    img += _bump(X, Y, 0.4, -0.15, 0.35, 0.8)
    ell = ((X - 0.05) / 0.55) ** 2 + ((Y + 0.35) / 0.3) ** 2 <= 1.0
    img = img + 0.9 * ell
    img[X ** 2 + Y ** 2 >= 1.0] = 0.0
    return img


def make_phantom(atlas: DictionaryAtlas, spec: PhantomSpec, j0: int):
    """(image, coefficients over the whole atlas, metadata dict)."""
    if spec.kind == "sparse":
        x = sparse_phantom(atlas, j0, spec.s, seed=spec.seed)
        img = synthesis(atlas, x)
        meta = {"s": spec.s, "kind": "sparse"}
    elif spec.kind == "tail":
        x = tail_phantom(atlas, spec.a, seed=spec.seed)
        img = synthesis(atlas, x)
        meta = {"a": spec.a, "kind": "tail"}
    else:
        img = cartoon_phantom(atlas)
        x = analysis(atlas, img)
        img = synthesis(atlas, x)  # the in-model part; tails beyond j_max are dropped
        meta = {"kind": "cartoon"}
    return img, x, meta
