"""feqo-lab benchmark: end-to-end and per-layer metrics per workload.

    python3 bench/run.py --workload presets --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all        # every workload, one by one

One process, one client, closed loop: each op is one `run_experiment` or
`run_wstate` call with its file writes, and the next op starts when the
previous one returns.  BLAS is pinned to one thread.  The loop runs whole
blocks of the seeded op list (see workloads.py) until --seconds have passed
and at least 24 ops have run.
After the timed region every op is re-run on the other propagation route and
its fidelity, leakage, photon-mean and entropy metrics must agree; an op that
raises or disagrees is failed and is never a latency sample.

--trace 0 reports the end-to-end metrics.  --trace 1 times the same ops
untraced, then again with span recorders around every layer's public
functions, and reports per-layer self times and counts and the tracing
overhead; spans are written to .bench_out/ when the run ends.

The last line of stdout is the result JSON; the lines above it are a table
with sample counts and a JSON line with provenance and the op-list digest.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
CHECK_WORKERS = 2   # the re-runs are untimed, so they may use both cores
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

sys.path[:0] = [str(SRC), str(BENCH)]

import loop  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- set-up and provenance -----------------------------------------------

def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters running setup_probe.py."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import numpy
    import scipy
    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    out[Path(path).name] = getattr(lib, sym)()
                    break
    return out


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
    }


# -- ops -------------------------------------------------------------------

class Program:
    """Calls the package's public entry points; ops write under `out`."""

    def __init__(self, experiments, out: Path):
        self.experiments = experiments
        self.out = out

    def call(self, op: dict, subdir: str = "timed"):
        out = self.out / subdir
        if op["call"] == "experiment":
            return self.experiments.run_experiment(
                op["name"], out_dir=out, sets=op["sets"])
        return self.experiments.run_wstate(
            op["n"], op["mode"], out_dir=out, sets=op["sets"])


def disagreement(record, other_metrics: dict) -> str | None:
    missing = [f for f in record.files if not Path(f).is_file()]
    if missing:
        return f"files not written: {missing}"
    return workloads.disagreement(record.metrics, other_metrics)


def rerun_on_other_route(op: dict, out: str) -> tuple[dict | None, str | None]:
    """Check worker: the op's metrics on its other route, or the error type."""
    import feqo_lab.cli.experiments as experiments
    program = Program(experiments, Path(out))
    try:
        record = program.call(workloads.other_route(op), f"check-{os.getpid()}")
    except Exception as exc:   # reported as a failed op by the parent
        return None, type(exc).__name__
    return record.metrics, None


def check(results: list[loop.OpResult], out: Path):
    """Re-run every completed op on the other route, in worker processes.

    The workers are forked, so they start with the package already imported;
    BLAS runs one thread, so no BLAS thread pool is forked with them.
    """
    ops = [(r.op, str(out)) for r in results if r.error is None]
    with multiprocessing.get_context("fork").Pool(CHECK_WORKERS) as pool:
        others = pool.starmap(rerun_on_other_route, ops, chunksize=1)
        pool.close()
        pool.join()
    loop.verify(results, others, disagreement)


def bytes_written(record) -> int:
    return sum(Path(f).stat().st_size for f in record.files)


WARMUP = [
    {"id": "warmup.0", "call": "wstate", "mode": "analog", "n": 2, "sets": []},
    {"id": "warmup.1", "call": "experiment", "name": "fig2a_strong",
     "sets": ["drive.alpha_re=2.0"]},
]


def warm_up(program: Program):
    """Let lazy imports and first-call set-up finish before timing."""
    for op in WARMUP:
        for method in (workloads.EIGEN, workloads.FIXED_STEP):
            program.call(workloads.with_method(op, method), "warmup")


# -- reporting ---------------------------------------------------------

def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(summary: loop.Summary, setup: list[float], rss_mb: float):
    """End-to-end values, and the sample count behind each as a note."""
    n = len(summary.samples)
    tail = summary.tail
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": summary.ops_per_s,
        "op_s_p50": summary.p50 if n else 0.0,
        "op_s_tail": tail[1] if tail else 0.0,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{n} verified ops in {summary.wall_s:.3f} s",
        "op_s_p50": f"median of {n} ops",
        "op_s_tail": (f"p{tail[0]} of {n} ops, {loop.TAIL_BEYOND} beyond"
                      if tail else f"undefined for {n} ops"),
        "peak_rss_mb": "ru_maxrss at the end of the timed region",
    }
    return values, notes


# -- main ------------------------------------------------------------------

def run_all(args) -> int:
    code = 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feqo_lab" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:   # before numpy is first imported
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)

    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    t0 = time.perf_counter()
    import feqo_lab.cli.experiments as experiments
    import_s = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        program = Program(experiments, out)
        warm_up(program)
        results, wall = loop.run_closed_loop(
            lambda b: workloads.make_block(args.workload, args.seed, b),
            program.call, args.seconds,
            min_ops=workloads.MIN_OPS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ops = [r.op for r in results]
        detail = {"op_list": {"sha256": workloads.digest(ops),
                              "ops": len(ops)}}
        notes = {}
        if args.trace:
            values = traced_run(args, program, results, wall, import_s, detail)
        check(results, out)
        summary = loop.summarize(results, wall)
        if not args.trace:
            values, notes = end_to_end(summary, setup, rss_mb)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    units = declared_units(args.trace)
    if units.keys() != values.keys():
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(units.keys() ^ values.keys())}")

    detail["provenance"] = provenance()
    detail["samples"] = {"setup_probes": len(setup),
                         "ops": len(summary.samples), "peak_rss_readings": 1}
    detail["ops"] = [{"id": r.op["id"], "s": round(r.seconds, 6),
                      "error": r.error} for r in results]
    correct = summary.failed == 0
    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} op_list_sha256={detail['op_list']['sha256'][:16]}")
    for name, value in values.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]:<13} "
              f"{notes.get(name, '')}")
    print(f"  {'fail_ratio':<30} {summary.failed / summary.attempted:>14.6g} "
          f"{'':<13} {summary.failed} failed / {summary.attempted} attempted "
          "(not a result metric)")
    for r in results:
        if r.error is not None:
            print(f"  failed op {r.op['id']}: {r.error}")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": summary.attempted,
        "failed": summary.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def traced_pass(program: Program, ops: list[dict]):
    """Run the ops once under a fresh Tracer: (results, wall, tracer)."""
    tracer = Tracer()

    def traced_call(op):
        with tracer.op_span(op["id"]) as span:
            record = program.call(op, "traced")
        span.info = {"bytes": bytes_written(record)}
        return record

    tracer.install()
    try:
        results, wall = loop.run_ops(ops, traced_call)
    finally:
        tracer.uninstall()
    return results, wall, tracer


def traced_run(args, program, results, wall, import_s, detail):
    """Re-run the timed ops under the span recorders; per-layer metrics."""
    traced, traced_wall, tracer = traced_pass(program, [r.op for r in results])
    for plain, tr in zip(results, traced):
        if plain.error is None and tr.error is not None:
            plain.error = f"traced run raised {tr.error}"
        elif plain.error is None:
            why = workloads.disagreement(plain.record.metrics, tr.record.metrics)
            if why is not None:
                plain.error = f"traced run differs: {why}"
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    layers = layer_metrics(tracer.spans)
    layers["cli.import_s"] = import_s
    ok = sum(1 for r in traced if r.error is None)
    layers["trace.ops_per_s"] = ok / traced_wall
    layers["trace.overhead_ratio"] = traced_wall / wall
    detail["trace"] = {"untraced_wall_s": wall, "traced_wall_s": traced_wall,
                       "spans": len(tracer.spans)}
    return layers


if __name__ == "__main__":
    sys.exit(main())
