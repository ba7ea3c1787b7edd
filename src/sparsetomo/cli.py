"""Command-line harness: atlas build, certify, reconstruct, sweep, fit.

Each command takes only the flags it reads.  Every flag can also come from a
JSON config file (--config); explicit flags win over the file, and a file key
the command does not read is a usage error, as such a flag is.  All runs are
deterministic in their seeds, and outputs are plain CSV / text / PGM / flat
binary files under --out.
"""

from __future__ import annotations

import json
import os

import click
import numpy as np

from . import io as stio
from .experiments import (ExperimentConfig, build_model, fit_scaling,
                          fit_scaling_windowed, run_certification_report,
                          run_recovery_sweep)
from .models import assemble_system, draw_samples
from .phantoms import PhantomSpec, make_phantom
from .solve import SolveConfig, solve_constrained_l1
from .wavelets import build_atlas, build_filter, synthesis, truncation_positions
from .weights import WeightVector

MODEL_CHOICES = ("radon", "fanbeam", "fourier", "legendre")
PHANTOM_KEYS = ("phantom", "a")    # read by _phantom_from, from a config file only


def _load_config(config_path):
    if not config_path:
        return {}
    with open(config_path) as fh:
        return json.load(fh)


def _merged(config_path, file_keys=(), **flags):
    """The config file's keys, checked against the command's, under the given flags."""
    cfg = _load_config(config_path)
    unknown = sorted(set(cfg) - set(flags) - set(file_keys))
    if unknown:
        raise click.UsageError(f"config keys not read by this command: {', '.join(unknown)}")
    for k, v in flags.items():
        if v is not None:
            cfg[k] = v
    return cfg


def _phantom_from(cfg) -> PhantomSpec:
    kind = cfg.get("phantom", "sparse")
    return PhantomSpec(kind=kind, s=int(cfg.get("s", 5)),
                       a=float(cfg.get("a", 0.5)), seed=int(cfg.get("seed", 0)))


def _inputs(cfg, **fields):
    """A command's ExperimentConfig, its model and its window.

    The config holds the fields the commands share, read from the merged
    flags, plus the command's own.  The window is the scale <= j0 atoms of a
    tomographic model's atlas (None for the others).  build_model is
    memoised, so the run reuses this model.  A ValueError raised here
    (GeometryError and ConfigurationError among them) comes from the inputs,
    so it is reported as a usage error; errors of the run itself propagate.
    """
    try:
        exp = ExperimentConfig(
            model=cfg.get("model", "radon"),
            wavelet_order=int(cfg.get("wavelet_order", 1)),
            j0=int(cfg.get("j0", 2)),
            j_max=int(cfg["jmax"]) if cfg.get("jmax") is not None else None,
            gamma=float(cfg.get("gamma", 0.1)),
            zeta=float(cfg.get("zeta", 1.0)),
            **fields)
        model = build_model(exp.model, order=exp.wavelet_order, j_max=exp.j_max,
                            s_step=exp.s_step)
        window = (truncation_positions(model.atlas, exp.j0)
                  if exp.model in ("radon", "fanbeam") else None)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    return exp, model, window


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
    out = cfg.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    a = build_atlas(build_filter(order), j_max)
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
    exp, _, _ = _inputs(cfg)
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
    if cfg.get("model", "radon") not in ("radon", "fanbeam"):
        raise click.UsageError("reconstruct drives the tomographic models")
    exp, model, window = _inputs(cfg)
    out = cfg.get("out_dir") or "."
    os.makedirs(out, exist_ok=True)
    seed = int(cfg.get("seed", 0))
    beta = float(cfg.get("beta", 0.0))
    m = int(cfg.get("m", 64))
    a = model.atlas
    _, x_full, _ = make_phantom(a, _phantom_from(cfg), exp.j0)
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
                          meta={"seed": seed, "beta": beta})
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
@options("model", "wavelet_order", "j0", "jmax", "s", "m", "zeta", "gamma", "seed")
def sweep(config_path, betas, ms, seeds, **flags):
    """Recovery sweep over (beta, m, seed) cells; writes records.csv."""
    cfg = _merged(config_path, PHANTOM_KEYS, betas=_csv(betas, float), ms=_csv(ms, int),
                  seeds=_csv(seeds, int), **flags)
    out = cfg.get("out_dir") or "."
    exp, _, _ = _inputs(
        cfg,
        phantom=_phantom_from(cfg),
        betas=tuple(cfg.get("betas", [0.0])),
        ms=tuple(cfg["ms"]) if cfg.get("ms") else (int(cfg["m"]),) if cfg.get("m") else None,
        m_rule=cfg.get("m_rule", "fixed"),
        m_rule_c0=float(cfg.get("m_rule_c0", 1.0)),
        j0_rule=bool(cfg.get("j0_rule", False)),
        seeds=tuple(cfg.get("seeds", [0, 1, 2, 3, 4])),
        out_dir=out,
    )
    os.makedirs(out, exist_ok=True)
    records = run_recovery_sweep(exp)
    ok = sum(1 for r in records if r.status == "optimal")
    click.echo(f"{len(records)} cells, {ok} optimal; wrote {out}/records.csv")


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
