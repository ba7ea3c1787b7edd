"""The benchmark's workloads: inputs drawn from the workload seed, one
operation, and the correctness check of its outputs.

The package is driven only through its public API, and every call goes
through the module attribute so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

import sparsetomo.experiments as ex
import sparsetomo.io as stio
import sparsetomo.models as models
import sparsetomo.phantoms as phantoms
import sparsetomo.wavelets as wavelets
from sparsetomo.solve import SolveConfig

MAX_QUAD_SHIFT = 0.01     # compute_gram's quadrature-doubling limit


@dataclass
class Outcome:
    """What one operation produced.

    ``ok`` is False when the operation raised or its output failed the
    workload's check.  ``certified`` is False for a reconstruction whose
    solver status is not ``optimal``; certificates are always certified.
    """

    ok: bool
    certified: bool
    status: str
    rel_err: float = math.nan
    err_l2: float = math.nan
    digest: str = ""
    note: str = ""


def input_seed(workload_seed: int, stream: int, index: int) -> int:
    """Seed handed to the package for input ``index`` of one input stream."""
    return int(np.random.default_rng([workload_seed, stream, index]).integers(2 ** 31))


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ReconParams:
    j_max: int
    j0: int
    m: int
    solver: SolveConfig
    betas: tuple
    a: float = 0.5                # tail decay of the phantom
    zeta: float = 1.0
    s_step: float = 1.0 / 32


class ReconWorkload:
    """One ``run_recovery_cell`` per operation on the Radon model with a
    tail-decay phantom, plus the records file a sweep would write for it."""

    def __init__(self, params: ReconParams, seed: int):
        self.p = params
        self.seed = seed

    def setup(self):
        p = self.p
        self.atlas = wavelets.build_atlas(wavelets.build_filter(1), p.j_max)
        self.model = models.RadonModel(self.atlas, s_step=p.s_step)
        spec = phantoms.PhantomSpec("tail", a=p.a, seed=input_seed(self.seed, 0, 0))
        _, self.x_full, self.meta = phantoms.make_phantom(self.atlas, spec, p.j0)

    def op(self, index: int, out_dir: str) -> Outcome:
        p = self.p
        beta = p.betas[index % len(p.betas)]
        rec = ex.run_recovery_cell(self.atlas, self.model, p.j0, self.x_full, beta, p.m,
                                   input_seed(self.seed, 1, index), p.zeta, p.solver,
                                   record_meta=self.meta)
        stio.write_records_csv(os.path.join(out_dir, "records.csv"), [rec])
        return self.judge(rec.status, rec.err_l2 / float(np.linalg.norm(self.x_full)),
                          rec.err_l2,
                          _digest(rec.status, rec.err_l2, rec.err_img, rec.residual))

    def judge(self, status: str, rel: float, err_l2: float = math.nan,
              digest: str = "") -> Outcome:
        """Outcome of one reconstruction from its solver status and error."""
        ok = math.isfinite(rel)
        note = "" if ok else f"rel_err {rel!r} is not finite"
        return Outcome(ok=ok, certified=status == "optimal", status=status, rel_err=rel,
                       err_l2=err_l2, digest=digest, note=note)

    @staticmethod
    def check_feasible(system, result, cfg) -> str:
        """Re-check an ``optimal`` solve against its assembled system:
        ||A x_hat - y|| <= eta (1 + tol_feas) + 1e-12.  Returns a miss note."""
        if result.status != "optimal":
            return ""
        res = system.residual_norm(result.x_hat)
        limit = cfg.eta * (1.0 + cfg.tol_feas) + 1e-12
        return "" if res <= limit else f"optimal solve has residual {res:.6e} > {limit:.6e}"


@dataclass(frozen=True)
class CertifyParams:
    j0: int = 2
    j_max: int = 3
    report_args: dict = field(default_factory=dict)   # lam_grid, m_grid, mc_trials


class CertifyWorkload:
    """One ``run_certification_report`` per operation for the fan-beam model."""

    def __init__(self, params: CertifyParams, seed: int):
        self.p = params
        self.seed = seed

    def setup(self):
        self.cfg = ex.ExperimentConfig(model="fanbeam", j0=self.p.j0, j_max=self.p.j_max,
                                       zeta=1.0, gamma=0.1)

    def op(self, index: int, out_dir: str) -> Outcome:
        cert, rows, _ = ex.run_certification_report(
            self.cfg, out_dir, seed=input_seed(self.seed, 1, index), **self.p.report_args)
        misses = []
        shift = cert.sigma_min_shift
        if shift is None or not shift <= MAX_QUAD_SHIFT:
            misses.append(f"quadrature-doubling shift {shift!r} > {MAX_QUAD_SHIFT}")
        if cert.fbi_flag:
            misses.append("fbi_flag set")
        misses += [f"delta* {d!r} < 0 at lambda {lam}, m {m}"
                   for lam, m, d in rows if not d >= 0.0]
        files = []
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files.append((name, fh.read()))
        return Outcome(ok=not misses, certified=True, status="certificate",
                       note="; ".join(misses), digest=_digest(files))


# the j0=3 cells of criterion 7
TAIL = ReconParams(j_max=4, j0=3, m=384, betas=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
                   solver=SolveConfig(max_iters=6000, tol_gap=1e-6))
# the README's certify command with the fan-beam model
FAN = CertifyParams()

# Smoke-test sizes: a j_max=2 atlas and a few angles.
TINY = {
    "recon-tail": ReconParams(j_max=2, j0=1, m=6, betas=(2.0 ** -5, 2.0 ** -6),
                              solver=SolveConfig(max_iters=300, tol_gap=1e-6)),
    "certify-fan": CertifyParams(j0=1, j_max=2, report_args={
        "lam_grid": (2.0,), "m_grid": (4,), "mc_trials": 4}),
}

FULL = {"recon-tail": TAIL, "certify-fan": FAN}

NAMES = tuple(FULL)


def make(name: str, seed: int, tiny: bool = False):
    params = (TINY if tiny else FULL)[name]
    cls = CertifyWorkload if isinstance(params, CertifyParams) else ReconWorkload
    return cls(params, seed)
