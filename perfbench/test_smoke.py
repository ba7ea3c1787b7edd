"""Smoke test of the benchmark on tiny inputs (a j_max=2 atlas, a few angles).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from sparsetomo import (SolveConfig, WeightVector, assemble_system,  # noqa: E402
                        draw_samples, solve_constrained_l1, truncation_positions)


REQUIRED = {
    "end_to_end": {"setup_s", "op_s.p50", "ops_per_s", "peak_rss_mb"},
    "per_layer": {
        "models.assemble_s", "models.rows_s", "models.rows_calls", "models.rows_atoms",
        "models.A_mb", "models.gram_s", "solve.solve_s", "solve.prep_s", "solve.iter_s",
        "solve.iters", "solve.gap", "solve.optimal", "solve.max_iters", "solve.infeasible",
        "certify.compute_gram_s", "certify.quad_nodes", "certify.delta_mc_s",
        "certify.supports", "wavelets.build_atlas_s", "phantoms.make_phantom_s",
        "wavelets.synthesis_s", "experiments.cell_s", "experiments.report_s",
        "io.write_s", "io.bytes", "trace.overhead_s",
        *(f"{layer}.self_s" for layer in ("wavelets", "phantoms", "models", "solve",
                                          "certify", "experiments", "io"))},
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload):
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        stdout, result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert REQUIRED[key] <= set(got)
        assert "failed_frac" in stdout and "provenance {" in stdout


def test_eta_below_least_squares_residual_counts_as_failed():
    wl = workloads.make("recon-tail", seed=1, tiny=True)
    wl.setup()
    window = truncation_positions(wl.atlas, wl.p.j0)
    system = assemble_system(wl.model, window, draw_samples(wl.model, wl.p.m, seed=3),
                             x_full=wl.x_full, beta=2.0 ** -5, noise_seed=4)
    A, y = system.matrix, system.y
    ls_res = float(np.linalg.norm(A @ np.linalg.lstsq(A, y, rcond=None)[0] - y))
    cfg = SolveConfig(zeta=1.0, eta=0.5 * ls_res)

    def op(index, out_dir):
        res = solve_constrained_l1(system, WeightVector.ones(len(window)), cfg)
        return wl.judge(res.status, 1.0)

    tally = run.measure(op, 0.0, None)
    assert [o.status for o in tally.outcomes] == ["infeasible"]
    assert tally.failed_frac == 1.0


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_gives_identical_outputs(workload, tmp_path):
    digests = []
    for k in range(2):
        out = tmp_path / str(k)
        out.mkdir()
        wl = workloads.make(workload, seed=11, tiny=True)
        wl.setup()
        digests.append([wl.op(i, str(out)).digest for i in (1, 2)])
    assert digests[0] == digests[1]
    assert all(digests[0])
