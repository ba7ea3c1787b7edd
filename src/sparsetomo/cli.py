"""Command-line harness, the package's one entry point: atlas build,
certify, reconstruct, sweep, fit and exact-recovery.

Each command takes only the flags it reads.  Every flag can also come from a
JSON config file (--config); explicit flags win over the file, and a file key
the command does not read is a usage error, as such a flag is.  One table,
KEYS, maps each key to the ExperimentConfig field it sets; an unset key keeps
that field's default.  All runs are deterministic in their seeds, and
outputs are plain CSV / text / PGM / flat binary files under --out.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import click
import numpy as np

from . import io as stio
from .certify import recovery_rule_m
from .experiments import (EXACT_TOL, ExperimentConfig, _exact_recovery_errors, build_model,
                          calibrate_recovery_constant, fit_scaling, fit_scaling_windowed,
                          recovery_cells, run_certification_report, run_recovery_sweep)
from .models import assemble_system, draw_samples
from .phantoms import make_phantom
from .solve import SolveConfig, solve_constrained_l1
from .wavelets import build_atlas, build_filter, synthesis, truncation_positions
from .weights import WeightVector

MODEL_CHOICES = ("radon", "fanbeam", "fourier", "legendre")

# config key -> (ExperimentConfig field, converter); "phantom." and "solver."
# name a field of that member.  ms comes after m, so it wins.
KEYS = {
    "model": ("model", str), "wavelet_order": ("wavelet_order", int),
    "j0": ("j0", int), "jmax": ("j_max", int),
    "m": ("ms", lambda v: (int(v),)), "ms": ("ms", lambda v: tuple(int(x) for x in v)),
    "betas": ("betas", lambda v: tuple(float(x) for x in v)),
    "seeds": ("seeds", lambda v: tuple(int(x) for x in v)),
    "m_rule": ("m_rule", str), "m_rule_c0": ("m_rule_c0", float),
    "m_rule_p": ("m_rule_p", float), "m_cap": ("m_cap", int), "m_min": ("m_min", int),
    "j0_rule": ("j0_rule", bool), "j0_cap": ("j0_cap", int), "j0_offset": ("j0_offset", int),
    "gamma": ("gamma", float), "zeta": ("zeta", float),
    "phantom": ("phantom.kind", str), "s": ("phantom.s", int), "a": ("phantom.a", float),
    "seed": ("phantom.seed", int),
    "max_iters": ("solver.max_iters", int), "tol_gap": ("solver.tol_gap", float),
}
PHANTOM_KEYS = ("phantom", "a")    # keys a config file sets and no flag does
SWEEP_KEYS = PHANTOM_KEYS + ("m_rule_p", "m_cap", "m_min", "j0_cap", "j0_offset",
                             "max_iters", "tol_gap")


def _merged(config_path, file_keys=(), **flags):
    """The config file's keys, checked against the command's, under the given flags."""
    cfg = {}
    if config_path:
        with open(config_path) as fh:
            cfg = json.load(fh)
    unknown = sorted(set(cfg) - set(flags) - set(file_keys))
    if unknown:
        raise click.UsageError(f"config keys not read by this command: {', '.join(unknown)}")
    for k, v in flags.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _inputs(cfg, tomographic=False, **fields):
    """A command's ExperimentConfig, from the keys of KEYS that the merged
    flags and file set (fields, then its defaults, fill the rest), and its
    model, which build_model memoises for the run.  A tomographic command's
    cells are checked too (recovery_cells): each needs a sample count and a
    window that holds the sparse phantom.  A ValueError raised here
    (GeometryError and ConfigurationError among them) or a non-tomographic
    model where the command needs one comes from the inputs, so it is a usage
    error; errors of the run itself propagate.
    """
    members = {"phantom": {}, "solver": {}}
    for key, (name, conv) in KEYS.items():
        if cfg.get(key) is not None:
            member, _, attr = name.rpartition(".")
            (members[member] if member else fields)[attr] = conv(cfg[key])
    try:
        exp = ExperimentConfig(**fields)
        exp.phantom = replace(exp.phantom, **members["phantom"])
        exp.solver = replace(exp.solver, **members["solver"])
        if tomographic and exp.model not in ("radon", "fanbeam"):
            raise click.UsageError(f"{click.get_current_context().info_name} drives the "
                                   f"tomographic models (radon, fanbeam), not {exp.model}")
        model = build_model(exp.model, order=exp.wavelet_order, j_max=exp.j_max,
                            s_step=exp.s_step)
        if tomographic:
            recovery_cells(exp)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return exp, model


def _csv(text, conv):
    return None if text is None else [conv(v) for v in text.split(",")]


OPTIONS = {
    "model": click.option("--model", type=click.Choice(MODEL_CHOICES), default=None),
    "wavelet_order": click.option("--wavelet-order", type=int, default=None),
    "j0": click.option("--j0", type=int, default=None),
    "jmax": click.option("--jmax", type=int, default=None),
    "s": click.option("--s", type=int, default=None),
    "m": click.option("--m", type=int, default=None),
    "beta": click.option("--beta", type=float, default=None),
    "zeta": click.option("--zeta", type=float, default=None),
    "gamma": click.option("--gamma", type=float, default=None),
    "seed": click.option("--seed", type=int, default=None),
    "out": click.option("--out", "out_dir", type=click.Path(), default=None),
    "config": click.option("--config", "config_path", type=click.Path(exists=True), default=None),
}


def options(*names):
    """The named flags of OPTIONS, then --out and --config."""
    def wrap(fn):
        for name in reversed(names + ("out", "config")):
            fn = OPTIONS[name](fn)
        return fn
    return wrap


@click.group()
def main():
    """Sparse-angle tomography toolkit."""


@main.group()
def atlas():
    """Dictionary atlas commands."""


@atlas.command("build")
@options("wavelet_order", "jmax")
def atlas_build(config_path, **flags):
    """Build a wavelet atlas and export it (binary patches + text header)."""
    cfg = _merged(config_path, **flags)
    order = int(cfg.get("wavelet_order", 1))
    j_max = int(cfg.get("jmax", 3))
    try:
        a = build_atlas(build_filter(order), j_max)
    except ValueError as exc:        # ConfigurationError: the inputs, a usage error
        raise click.UsageError(str(exc)) from exc
    out = cfg.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"atlas_order{order}_j{j_max}.bin")
    stio.write_atlas(path, a)
    counts = " ".join(str(int(c)) for c in a.scale_counts())
    click.echo(f"atoms {len(a)} per-scale {counts}")
    click.echo(f"wrote {path}")


@main.command()
@options("model", "wavelet_order", "j0", "jmax", "zeta", "gamma", "seed")
def certify(config_path, **flags):
    """Gram certificate, coherence table, restricted-constant estimates."""
    cfg = _merged(config_path, **flags)
    exp, _ = _inputs(cfg)
    out = cfg.get("out_dir") or "."
    cert, _, table = run_certification_report(exp, out, seed=int(cfg.get("seed", 0)))
    click.echo(f"sigma_min {cert.sigma_min!r} sigma_max {cert.sigma_max!r}")
    click.echo(f"b_fit {cert.b_fit!r} B {cert.coherence_B!r}")
    click.echo("sample complexity " + " ".join(f"{k}={v}" for k, v in table.items()))
    click.echo(f"wrote {out}/certificate.txt and {out}/coherence.csv")


@main.command()
@options("model", "wavelet_order", "j0", "jmax", "s", "m", "beta", "zeta", "seed")
def reconstruct(config_path, **flags):
    """One reconstruction: phantom, sampled angles, solve, image outputs."""
    cfg = _merged(config_path, PHANTOM_KEYS, **flags)
    exp, model = _inputs(cfg, tomographic=True, ms=(64,))
    out = cfg.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    seed = exp.phantom.seed          # it also draws the angles and the noise
    beta = float(cfg.get("beta", 0.0))
    m = exp.ms[0]
    a = model.atlas
    window = truncation_positions(a, exp.j0)
    _, x_full, _ = make_phantom(a, exp.phantom, exp.j0)
    samples = draw_samples(model, m, seed=seed)
    system = assemble_system(model, window, samples, x_full=x_full, beta=beta,
                             noise_seed=seed + 1)
    sc = SolveConfig(zeta=exp.zeta, eta=beta + system.tail_residual)
    res = solve_constrained_l1(system, WeightVector.ones(len(window)), sc)
    stio.write_trace_csv(os.path.join(out, "trace.csv"), res.trace)
    x_hat = np.zeros(len(a))
    x_hat[window] = res.x_hat
    img = synthesis(a, x_hat)
    stio.write_image_binary(os.path.join(out, "reconstruction.bin"), img, a.grid)
    stio.write_pgm(os.path.join(out, "reconstruction.pgm"), img)
    stio.write_system_dir(os.path.join(out, "system"), system,
                          meta={"seed": seed, "beta": beta, "model": exp.model,
                                "wavelet_order": exp.wavelet_order, "jmax": exp.j_max,
                                "j0": exp.j0})
    err = float(np.linalg.norm(res.x_hat - x_full[window]))
    click.echo(f"status {res.status} iterations {res.iterations} "
               f"residual {res.residual!r} window_err {err!r}")
    click.echo(f"wrote {out}/reconstruction.pgm")


@main.command()
@click.option("--betas", type=str, default=None, help="comma-separated noise levels")
@click.option("--ms", type=str, default=None, help="comma-separated sample counts")
@click.option("--seeds", type=str, default=None, help="comma-separated seeds")
@click.option("--m-rule", type=click.Choice(["fixed", "noise_matched"]), default=None)
@click.option("--m-rule-c0", type=float, default=None)
@click.option("--j0-rule/--no-j0-rule", default=None)
@options("model", "wavelet_order", "j0", "jmax", "s", "m", "zeta", "seed")
def sweep(config_path, betas, ms, seeds, **flags):
    """Recovery sweep over (beta, m, seed) cells; writes records.csv."""
    cfg = _merged(config_path, SWEEP_KEYS, betas=_csv(betas, float), ms=_csv(ms, int),
                  seeds=_csv(seeds, int), **flags)
    out = cfg.get("out_dir") or "."
    exp, _ = _inputs(cfg, tomographic=True, out_dir=out)
    records = run_recovery_sweep(exp)
    ok = sum(1 for r in records if r.status == "optimal")
    click.echo(f"{len(records)} cells, {ok} optimal; wrote {out}/records.csv")


@main.command("exact-recovery")
@click.option("--s", type=click.IntRange(min=2), default=5)
@click.option("--j0", type=click.IntRange(min=0), default=3)
@click.option("--pilot-j0", type=click.IntRange(min=1), default=2)
@click.option("--gamma", type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=0.1)
@click.option("--n-seeds", type=click.IntRange(min=1), default=20)
def exact_recovery(s, j0, pilot_j0, gamma, n_seeds):
    """Calibrate the sample rule on the pilot window, then recover noiseless
    s-sparse signals on the scale <= j0 Radon window, one per seed.  The
    calibration divides by s j0 log^3 s, so s and the pilot j0 start above
    the values that make it 0."""
    # both windows must hold the s-sparse phantom; the check wants some
    # sample count, and reads none
    for window_j0 in (pilot_j0, j0):
        _inputs({"j0": window_j0, "s": s}, tomographic=True, ms=(1,))
    c0 = calibrate_recovery_constant(order=1, s=s, j0=pilot_j0, n_seeds=n_seeds)
    m = recovery_rule_m(c0, s, j0, gamma=gamma)
    click.echo(f"calibrated C0 = {c0:.4f}; rule gives m = {m} at j0 = {j0}")
    model = build_model("radon", order=1, j_max=j0 + 1)
    errors = _exact_recovery_errors(model, j0, s, m, n_seeds)
    for seed, rel in enumerate(errors):
        click.echo(f"seed {seed}: rel err {rel:.2e} {'ok' if rel <= EXACT_TOL else 'MISS'}")
    click.echo(f"{sum(e <= EXACT_TOL for e in errors)}/{n_seeds} exact recoveries")


@main.command()
@click.option("--records", "records_path", type=click.Path(exists=True), required=True)
@click.option("--x-axis", type=click.Choice(["beta", "m"]), default="beta")
@click.option("--windowed/--no-windowed", default=True)
@click.option("--out", "out_dir", type=click.Path(), default=".")
def fit(records_path, x_axis, windowed, out_dir):
    """Fit the error-scaling exponent from a records.csv."""
    records = stio.read_records_csv(records_path)
    os.makedirs(out_dir, exist_ok=True)
    if windowed:
        expo, intercept, r2, window, flagged = fit_scaling_windowed(records, x_axis)
    else:
        expo, intercept, r2 = fit_scaling(records, x_axis)
        window, flagged = None, False
    stio.write_fit_report(os.path.join(out_dir, "fit.txt"), expo, intercept, r2, records,
                          window=window, flagged=flagged, x_axis=x_axis)
    click.echo(f"exponent {expo!r} r2 {r2!r} flagged {flagged}")


if __name__ == "__main__":
    main()
