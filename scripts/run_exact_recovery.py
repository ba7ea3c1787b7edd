#!/usr/bin/env python3
"""Calibrate the sample-count rule on a pilot window and verify noiseless
exact recovery of sparse signals on a finer window across a seed battery."""

import argparse

import numpy as np

from sparsetomo import PhantomSpec
from sparsetomo.experiments import (build_model, calibrate_recovery_constant,
                                    recovery_rule_m, run_recovery_cell)
from sparsetomo.phantoms import make_phantom
from sparsetomo.solve import SolveConfig


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--s", type=int, default=5)
    p.add_argument("--j0", type=int, default=3)
    p.add_argument("--pilot-j0", type=int, default=2)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--gamma", type=float, default=0.1)
    args = p.parse_args()

    c0 = calibrate_recovery_constant(order=1, s=args.s, j0=args.pilot_j0,
                                     n_seeds=args.seeds)
    m = recovery_rule_m(c0, args.s, args.j0, gamma=args.gamma)
    print(f"calibrated C0 = {c0:.4f}; rule gives m = {m} at j0 = {args.j0}")

    model = build_model("radon", order=1, j_max=args.j0 + 1)
    atlas = model.atlas
    good = 0
    for seed in range(args.seeds):
        _, x_full, meta = make_phantom(atlas, PhantomSpec("sparse", s=args.s,
                                                          seed=seed), args.j0)
        rec = run_recovery_cell(atlas, model, args.j0, x_full, 0.0, m, seed,
                                1.0, SolveConfig(max_iters=20000),
                                record_meta=meta)
        rel = rec.err_l2 / np.linalg.norm(x_full)
        ok = rel <= 1e-5
        good += ok
        print(f"seed {seed}: rel err {rel:.2e} {'ok' if ok else 'MISS'}")
    print(f"{good}/{args.seeds} exact recoveries")


if __name__ == "__main__":
    main()
