"""Benchmark of the sparsetomo reconstruction and certification pipelines.

    python3 perfbench/run.py --workload recon-tail --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

One process runs one workload in a closed loop: each operation starts after
the previous one ends.  Set-up (imports, atlas, model, phantoms, repeated
SETUP_REPEATS times, then one untimed warm-up operation) comes first; then
operations run until --seconds have passed, at least one.  ``--workload all``
runs every workload in a fresh process of its own, one after another.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation twice on the same inputs, untraced and then traced (see
tracing.py), re-runs each solve with max_iters=1 to time its set-up, and
reports the per-layer metrics.  The report lines, the provenance block and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics go to standard output.  The run's operations, metrics and spans
are written to .perfbench_out/ at the root of the checkout.

``setup_s`` runs from the script's start to the first timed operation, with
the repeated build counted once, at its median.  ``op_s.p50`` is the median
wall time of one operation, ``ops_per_s`` the operations attempted over the
timed wall time, ``peak_rss_mb`` the process's peak resident set in MiB.
``failed`` counts operations that raised or failed their workload's check.
``failed_frac`` in the report also counts reconstructions whose solver status
is not ``optimal``; it and ``rel_err.p50`` are not gated metrics, because
they read 0 or have no value on some workloads.  In the traced run,
``solve.gap`` is the mean gap over solves that found a feasible iterate (0
when none did; ``solve.no_feasible`` counts those that did not).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(w["name"] for w in SPEC["workloads"])
SETUP_REPEATS = 3
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: a j_max=2 atlas and a few angles")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and provenance


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    """Pin the BLAS thread count; must run before numpy is imported."""
    threads = min(MAX_BLAS_THREADS, nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    """HEAD of the checkout's own .git, or None when it is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((ROOT / "src").rglob("*.py"))
    return {
        "workload": workload, "seed": seed,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads, "blas_threads": _blas_threads_in_use(),
        "nproc": nproc(), "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "loop": "closed, one client, single process",
    }


# ---------------------------------------------------------------------------
# the operation loop


@dataclass
class Tally:
    times: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def failed_frac(self) -> float:
        return sum(not (o.ok and o.certified) for o in self.outcomes) / self.attempted


def timed(fn, *args):
    """(seconds, Outcome) of one operation; an exception becomes a failure."""
    from workloads import Outcome
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # the loop must go on and report it
        traceback.print_exc()
        out = Outcome(ok=False, certified=False, status="raised", note=repr(exc))
    return time.perf_counter() - t0, out


def measure(op, seconds, out_dir) -> Tally:
    """Closed loop over op(index, out_dir), index = 1, 2, ..., until `seconds`
    have passed; index 0 is the warm-up's."""
    tally = Tally()
    start = time.perf_counter()
    index = 1
    while True:
        dt, out = timed(op, index, out_dir)
        tally.times.append(dt)
        tally.outcomes.append(out)
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    tally.wall = time.perf_counter() - start
    return tally


def measure_traced(wl, tracer, seconds, out_dir):
    """Each index runs untraced, then traced; the traced solve is re-checked
    and re-run with max_iters=1.  Returns (untraced, traced, traced op ids,
    consistency misses)."""
    import sparsetomo.solve as solve
    import tracing
    untraced, traced = Tally(), Tally()
    op_ids, misses = [], []
    start = time.perf_counter()
    index = 1
    while True:
        tracer.last_solve = None
        dt, out_u = timed(wl.op, index, out_dir)
        untraced.times.append(dt)
        untraced.outcomes.append(out_u)
        iters_u = tracer.last_solve[1].iterations if tracer.last_solve else None
        tracer.last_solve = None

        _, out_t = timed(tracer.run_op, index, wl.op, index, out_dir)
        traced.times.append(tracing.root_seconds(tracer.spans, index))
        traced.outcomes.append(out_t)
        op_ids.append(index)
        iters_t = None
        if tracer.last_solve is not None:
            (system, omega, cfg), res = tracer.last_solve
            tracer.last_solve = None
            iters_t = res.iterations
            note = wl.check_feasible(system, res, cfg)
            if note:
                misses.append(f"op {index}: {note}")
            t0 = time.perf_counter()
            solve.solve_constrained_l1(system, omega, replace(cfg, max_iters=1))
            tracer.add_span("solve.prep", index, t0, time.perf_counter())
            del system  # release A before the next operation assembles its own
        # the digest covers err_l2 (or the certificate files)
        if (out_u.digest, iters_u) != (out_t.digest, iters_t):
            misses.append(f"op {index}: untraced err_l2 {out_u.err_l2!r}, iters {iters_u} "
                          f"!= traced err_l2 {out_t.err_l2!r}, iters {iters_t}")
        index += 1
        if time.perf_counter() - start >= seconds:
            break
    untraced.wall = traced.wall = time.perf_counter() - start
    return untraced, traced, op_ids, misses


# ---------------------------------------------------------------------------
# one workload


def run_workload(args) -> int:
    if not (ROOT / "src" / "sparsetomo" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'sparsetomo'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    threads = pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import sparsetomo
    if Path(sparsetomo.__file__).resolve().parent != ROOT / "src" / "sparsetomo":
        print(f"perfbench: imported sparsetomo from {sparsetomo.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, tiny=args.tiny)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with tracing.Tracer() if args.trace else contextlib.nullcontext() as tracer:
            return _run(args, wl, tracer, str(work), threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, wl, tracer, work, threads) -> int:
    import tracing
    t_imports = time.perf_counter() - T_START
    builds = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.op = "setup"
        t0 = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t0)
        if tracer:
            tracer.op = None
    warm_s, warm = timed(wl.op, 0, work)
    setup_s = (time.perf_counter() - T_START) - sum(builds) + statistics.median(builds)

    misses = []
    if tracer is None:
        tally = measure(wl.op, args.seconds, work)
        values = {
            "setup_s": setup_s,
            "op_s.p50": statistics.median(tally.times),
            "ops_per_s": tally.attempted / tally.wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        attempted, failed, spans = tally.attempted, tally.failed, []
        counted = tally
    else:
        untraced, traced, op_ids, misses = measure_traced(wl, tracer, args.seconds, work)
        values = tracing.layer_metrics(tracer.spans, op_ids)
        t50, u50 = statistics.median(traced.times), statistics.median(untraced.times)
        values.update({
            "trace.op_s.p50": t50, "trace.op_s.mean": statistics.fmean(traced.times),
            "trace.overhead_s": t50 - u50,
            "experiments.failed_frac": traced.failed_frac,
            "experiments.rel_err.p50": _rel_err_p50(traced) or 0.0,
        })
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        spans = tracer.spans
        counted = traced
    correct = failed == 0 and not misses
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in SPEC["per_layer" if tracer else "end_to_end"]}

    prov = provenance(args.workload, args.seed, threads)
    _print_report(args, counted, metrics, setup_s, t_imports, builds, warm_s, warm,
                  misses, tracer is not None)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({
        "provenance": prov, "result": result, "misses": misses,
        "ops": [{"seconds": t, **o.__dict__}
                for t, o in zip(counted.times, counted.outcomes)],
        "spans": spans}, default=str) + "\n")
    print(json.dumps(result))
    return 0


def _rel_err_p50(tally):
    errs = [o.rel_err for o in tally.outcomes if o.rel_err == o.rel_err]
    return statistics.median(errs) if errs else None


def _print_report(args, tally, metrics, setup_s, t_imports, builds, warm_s, warm,
                  misses, traced):
    n = tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {n}  measured {tally.wall:.1f} s")
    print(f"  set-up      {setup_s:.4f} s  (imports {t_imports:.3f} s, build median of "
          f"{len(builds)} {statistics.median(builds):.3f} s, warm-up op {warm_s:.3f} s, "
          f"status {warm.status})")
    if not traced:
        for name, m in metrics.items():
            print(f"  {name:<12}{m['value']:.6g} {m['unit']}  ops {n}")
    uncertified = sum(o.ok and not o.certified for o in tally.outcomes)
    print(f"  failed_frac {tally.failed_frac:.6g}  ops {n}  "
          f"({tally.failed} raised or failed a check, {uncertified} not optimal)")
    rel = _rel_err_p50(tally)
    if rel is not None:
        print(f"  rel_err.p50 {rel:.6g}  ops {n}")
    if traced:
        for name, m in metrics.items():
            print(f"  {name:<28}{m['value']:.6g} {m['unit']}")
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in
                    ("wavelets", "phantoms", "models", "solve", "certify", "experiments", "io"))
        print(f"  layer self times sum to {total:.6f} s; traced op mean "
              f"{metrics['trace.op_s.mean']['value']:.6f} s")
    for o in tally.outcomes:
        if o.note:
            print(f"  check: {o.status}: {o.note}")
    for note in misses:
        print(f"  check: {note}")


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
