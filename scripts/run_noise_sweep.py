#!/usr/bin/env python3
"""Noise-scaling experiment: sweep the noise level with the matched window
rule and sample rule, then fit the error-decay exponent over the best
power-law window."""

import argparse

import numpy as np

from sparsetomo import PhantomSpec, fit_scaling_windowed, run_recovery_sweep
from sparsetomo.experiments import ExperimentConfig
from sparsetomo.solve import SolveConfig
from sparsetomo import io as stio


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--phantom", default="tail", choices=["tail", "cartoon"])
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--m-cap", type=int, default=384)
    p.add_argument("--out", default="sweep_out")
    args = p.parse_args()

    phantom = (PhantomSpec("tail", a=args.a, seed=0) if args.phantom == "tail"
               else PhantomSpec("cartoon"))
    cfg = ExperimentConfig(
        phantom=phantom,
        betas=tuple(2.0 ** -k for k in range(2, 8)),
        ms=None, m_rule="noise_matched",
        m_rule_c0=0.5 if args.phantom == "tail" else 1.0,
        m_rule_p=None if args.phantom == "tail" else 0.5,
        m_cap=args.m_cap, m_min=16,
        j0_rule=True, j0_cap=3, j0_offset=-2, zeta=1.0,
        seeds=tuple(range(args.seeds)), s_step=1.0 / 32,
        solver=SolveConfig(max_iters=6000, tol_gap=1e-6),
        out_dir=args.out)
    records = run_recovery_sweep(cfg)
    for b in cfg.betas:
        cell = [r.err_l2 for r in records if r.beta == b]
        print(f"beta = 2^{np.log2(b):.0f}: median err {np.median(cell):.4f}")
    expo, icpt, r2, window, flagged = fit_scaling_windowed(records, "beta")
    stio.write_fit_report(f"{args.out}/fit.txt", expo, icpt, r2, records,
                          window=window, flagged=flagged, x_axis="beta")
    print(f"exponent {expo:.3f} r2 {r2:.4f} window "
          f"{[round(np.log2(w)) for w in window]} flagged {flagged}")
    print(f"wrote {args.out}/records.csv and {args.out}/fit.txt")


if __name__ == "__main__":
    main()
