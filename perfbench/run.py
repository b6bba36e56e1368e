"""blowuplab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
workload is a closed loop: one caller runs one op at a time in this process,
with BLAS and OpenMP pinned to one thread.

--trace 0 runs ops with fresh seeded inputs until S seconds have passed and
reports the end-to-end metrics: wall_s (median op time), setup_s (median of
several set-ups: imports, grid and seeded inputs), peak_rss_mb.
--trace 1 runs op 0 once untraced and twice traced, checks that every count
repeats exactly and that skipped layers see no calls, and reports per-layer
calls, self time and counters plus trace.overhead_frac.

The last line of stdout is the JSON result; the line before it holds the
details (per-op gates and ledger hashes, versions, thread pins, commit).
"""

from __future__ import annotations

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"
SETUP_REPEATS = 3  # set-ups per run: one here, the rest in fresh interpreters
SUBPROCESS_TIMEOUT_S = 60
WORKLOAD_NAMES = ("separatrix", "similarity_cli", "physical_blowup")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup(name: str, seed: int, workdir: Path):
    """Imports, grid construction and op 0's seeded inputs."""
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, scipy and blowuplab

    workload = workloads.WORKLOADS[name]()
    workload.setup(workdir)
    return workload, workload.inputs(seed, 0)


def _setup_in_fresh_interpreter(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
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


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "commit": _commit(),
    }


def _timed_op(workload, inputs, tmp: Path) -> tuple[float, dict]:
    """Run one op; a raised error is a failed op, never retried."""
    opdir = Path(tempfile.mkdtemp(dir=tmp))
    t0 = time.perf_counter()
    try:
        res = workload.op(inputs, opdir)
        record = {"passed": res.passed, "gates": res.gates, "sha256": res.sha256}
    except Exception as exc:  # the loop must go on and count the failure
        record = {"passed": False, "error": f"{type(exc).__name__}: {exc}",
                  "traceback": traceback.format_exc(limit=3)}
    elapsed = time.perf_counter() - t0
    shutil.rmtree(opdir, ignore_errors=True)
    record["wall_s"] = elapsed
    return elapsed, record


def _measure(args, workload, inputs0, tmp: Path) -> tuple[dict, list[dict]]:
    walls, records = [], []
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < args.seconds:
        inputs = inputs0 if k == 0 else workload.inputs(args.seed, k)
        elapsed, record = _timed_op(workload, inputs, tmp)
        walls.append(elapsed)
        records.append({"op": k, **record})
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }, records


def _traced(workload, inputs0, tmp: Path):
    """Op 0 untraced, then twice traced; returns metrics, op records, the
    problems that make the run incorrect, and the sites the tracer could not
    find in the package (their layers then read zero calls)."""
    import spans
    from blowuplab import (
        analysis, cli, functionals, physical_solver, similarity_solver,
    )

    modules = {
        "analysis": analysis,
        "cli": cli,
        "functionals": functionals,
        "physical_solver": physical_solver,
        "similarity_solver": similarity_solver,
    }
    problems: list[str] = []
    untraced_s, record = _timed_op(workload, inputs0, tmp)
    records = [{"op": 0, "traced": False, **record}]
    runs = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.patched(modules):
            with tracer.span(spans.OP_SPAN):
                elapsed, record = _timed_op(workload, inputs0, tmp)
        records.append({"op": 0, "traced": True, **record})
        runs.append((elapsed, tracer.summary(), dict(tracer.counters)))

    (t1, sum1, cnt1), (t2, sum2, cnt2) = runs
    calls1 = {k: v["calls"] for k, v in sum1.items()}
    calls2 = {k: v["calls"] for k, v in sum2.items()}
    if calls1 != calls2 or cnt1 != cnt2:
        problems.append("call counts or counters differ between the two traced ops")
    if len({r.get("sha256") for r in records}) != 1:
        problems.append("ledger hashes differ between repeats of one input")
    for layer in workload.skips:
        if calls1[layer]:
            problems.append(f"{layer} called {calls1[layer]} times; this workload skips it")

    metrics = {}
    for layer in spans.LAYERS:
        calls = calls1[layer]
        self_s = 0.5 * (sum1[layer]["self_s"] + sum2[layer]["self_s"])
        metrics[f"{layer}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        if layer in spans.PER_CALL:
            incl = 0.5 * (sum1[layer]["incl_s"] + sum2[layer]["incl_s"])
            metrics[f"{layer}.us_per_call"] = {
                "value": 1e6 * incl / calls if calls else 0.0, "unit": "us"
            }
    for name, unit in spans.COUNTERS.items():
        if name != "physical_solver.run_to_blowup.h2_capped_steps":
            metrics[name] = {"value": cnt1[name], "unit": unit}
    probes = cnt1["analysis.tune_blowup_amplitude.probes"]
    metrics["analysis.tune_blowup_amplitude.steps_per_probe"] = {
        "value": cnt1["analysis.tune_blowup_amplitude.steps"] / probes if probes else 0.0,
        "unit": "steps/probe",
    }
    steps = cnt1["physical_solver.run_to_blowup.steps"]
    metrics["physical_solver.run_to_blowup.h2_capped_frac"] = {
        "value": cnt1["physical_solver.run_to_blowup.h2_capped_steps"] / steps
        if steps else 0.0,
        "unit": "fraction",
    }
    metrics["trace.overhead_frac"] = {
        "value": 0.5 * (t1 + t2) / untraced_s - 1.0, "unit": "fraction"
    }
    return metrics, records, problems, tracer.unpatched


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "blowuplab" / "__init__.py").is_file():
        print(f"perfbench: no blowuplab package under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        t0 = time.perf_counter()
        workload, inputs0 = _setup(args.workload, args.seed, tmp)
        setup_here = time.perf_counter() - t0
        if args.setup_only:
            print(f"{setup_here!r}")
            return 0
        unpatched: list[str] = []
        if args.trace:
            metrics, records, problems, unpatched = _traced(workload, inputs0, tmp)
        else:
            metrics, records = _measure(args, workload, inputs0, tmp)
            problems = []
            setups = [setup_here] + [
                _setup_in_fresh_interpreter(args) for _ in range(SETUP_REPEATS - 1)
            ]
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        attempted = len(records)
        failed = sum(1 for r in records if not r["passed"])
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": _environment(),
            "ops": records,
            "ops_failed_frac": {"value": failed / attempted, "unit": "fraction"},
            "problems": problems,
            "unpatched_sites": unpatched,
        }
        if not args.trace:
            details["setup_s_samples"] = setups
        print(json.dumps(details, sort_keys=True, default=str))
        print(json.dumps({
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
