"""Benchmark of the ``unshuffle`` CLI, driven in-process from one Python process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Each run sets up the
workload several times (set-up time is their median), then runs a fixed
pool of jobs, made from ``--seed``, in a closed loop, one at a time,
repeating the pool until ``--seconds`` have passed.  Every job's output is
checked.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` each job runs once untraced and once traced, in
alternating order, and the last line holds the per-layer metrics of the
traced runs.  Lines before the last one record the environment, the scale,
the seeds and every failed job.
"""

from __future__ import annotations

import os

# Pin every BLAS/OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, report_flag, run_cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Metric names, units and each workload's reason live in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

DEFAULT_SEED = 1
HELD_OUT_SEED = 2
SETUP_REPS = 5

# sha256 of the corpus and truth sidecar written by the first job's ``gen``
# under DEFAULT_SEED.  The generator's RNG stream order is a contract: a
# change to either hash is a correctness failure, not a new baseline.
RNG_GOLDEN = {
    "two_block_bulk": (
        "7073856242af30805e17f1da2bc7e9a29d1520e3965ae23ad7fad6ce8ef24900",
        "b8b16ae685524e7a7ccfbdd47a6a7ed066f4168acb5afc757bcb5e27bded5971"),
    "m_block_many": (
        "24eb754031712f259b56add5605dd633ddd5b0b115c459c75f798a9a8eba8916",
        "dc04ab93438deedaf2b18fd695d4e96de9cfc7aa45af619c0107eac9f47426b3"),
}


def _import_package() -> None:
    """Import ``unshuffle`` from this checkout's ``src``; exit 1 if absent."""
    if not (SRC / "unshuffle" / "cli.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'unshuffle'}")
    sys.path.insert(0, str(SRC))
    import unshuffle
    if Path(unshuffle.__file__).resolve().parent != (SRC / "unshuffle").resolve():
        sys.exit(f"bench: imported unshuffle from {unshuffle.__file__}, not {SRC}")


def _child_import_seconds() -> float:
    """Import time of the CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import unshuffle.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def _llc_bytes():
    try:
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def run_job(job, runner) -> dict:
    """Run one job's CLI calls and check its outputs.

    A job passes when every call exits 0, every report holds ``key: true``
    and the aligned output has exactly the expected size.  A call that exits
    1 is a failure the program declared; anything that contradicts itself
    (another exit code, a pass without its outputs, a failure whose report
    says it passed) makes the run incorrect."""
    for path in job.scratch:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    codes, err = [], ""
    for argv in job.calls:
        code, err = runner(argv)
        codes.append(code)
        if code != 0:
            break
    elapsed = time.perf_counter() - start
    flags = [report_flag(p, job.key) for p in job.reports()]
    ok, consistent, reason = True, True, ""
    if codes[-1] != 0:
        ok = False
        last = job.reports(job.calls[len(codes) - 1:len(codes)])
        consistent = codes[-1] == 1 and not any(
            report_flag(p, job.key) is True for p in last)
        reason = _failure_reason(last, err)
    elif not all(flag is True for flag in flags):
        ok = consistent = False
        reason = f"exit 0 but {job.key} flags {flags}"
    elif job.out is not None and (not job.out.is_file()
                                  or job.out.stat().st_size != job.out_bytes):
        ok = consistent = False
        size = job.out.stat().st_size if job.out.is_file() else None
        reason = f"aligned output has {size} bytes, expected {job.out_bytes}"
    return {"seconds": elapsed, "ok": ok, "consistent": consistent,
            "reason": reason, "label": job.label, "symbols": job.symbols,
            "trials": job.trials * len(codes) // len(job.calls)}


def _failure_reason(reports: list, err: str) -> str:
    for path in reports:
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        result = doc.get("result", {})
        if result.get("failure_reason"):
            return result["failure_reason"]
        if result.get("agrees") is False:
            return f"{doc['params']['event']}: Monte Carlo outside 3 sigma"
        if doc.get("diagnostics", {}).get("recovered") is False:
            return "solver finished but its output does not match the truth"
    lines = err.strip().splitlines()
    return lines[-1] if lines else "no report and no message"


def _setup(workload, seed: int, work: Path) -> tuple:
    """One set-up in a fresh directory: fresh-interpreter import and one
    warm-up job at a smaller scale."""
    workload.work = work
    work.mkdir(parents=True)
    imported = _child_import_seconds()
    start = time.perf_counter()
    run_job(workload.job(seed, 0, warmup=True), run_cli)
    return imported + time.perf_counter() - start, imported


def _rng_guard(workload) -> dict:
    """Re-run the first job's ``gen`` under DEFAULT_SEED and hash its files."""
    if not workload.guarded:
        return {}
    guard = workload.work / "rng_guard"
    guard.mkdir(exist_ok=True)
    argv = workload.gen_call(DEFAULT_SEED)
    argv[argv.index("--out") + 1] = str(guard / "corpus.bin")
    code, err = run_cli(argv)
    if code != 0:
        return {"ok": False, "error": err.strip()}
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (guard / "corpus.bin", guard / "corpus.bin.truth.json"))
    want = RNG_GOLDEN[workload.name]
    return {"ok": got == want, "corpus_sha256": got[0], "truth_sha256": got[1],
            "expected": list(want)}


def _tail(values: list) -> tuple:
    """Highest percentile with at least 10 samples above it, as (value,
    percentile), but never below the median: with fewer than 21 samples
    no such percentile is above the median, and the median is reported."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k + 1 < len(ordered) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timed_loop(workload, seed: int, seconds: float, tracer) -> tuple:
    """Closed loop over the run's pool of jobs for ``seconds``.  Every pool
    job runs at least once, in order; the loop then repeats the pool and
    ends on a whole cycle.  With a tracer, each job runs untraced and traced,
    alternating which goes first."""

    def traced(argv):
        return tracer.root("cli.cli_main", run_cli, argv)

    results, untraced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        slot = index % workload.pool
        job = workload.job(seed, slot)
        if tracer is None:
            results.append(run_job(job, run_cli) | {"slot": slot})
        else:
            for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
                if use_tracer:
                    with tracer:
                        results.append(run_job(job, traced) | {"slot": slot})
                else:
                    untraced.append(run_job(job, run_cli) | {"slot": slot})
        index += 1
        if (index >= workload.pool and index % workload.cycle == 0
                and time.perf_counter() - start >= seconds):
            break
    return results, untraced, time.perf_counter() - start


def verdicts(results: list) -> tuple:
    """Each pool job's verdict, {slot: (passed, label, failure reason)}, and
    whether every run of the same job reached the same verdict."""
    seen, steady = {}, True
    for r in results:
        verdict = (r["ok"], r["label"], r["reason"])
        steady = steady and seen.setdefault(r["slot"], verdict) == verdict
    return seen, steady


def end_to_end(results: list, window: float, pool: dict) -> tuple:
    """End-to-end metrics of an untraced loop, and each pool job's time.
    ``pool`` holds each pool job's verdict, as :func:`verdicts` gives it."""
    good = [r for r in results if r["ok"]]
    runs = {}
    for r in results:
        runs.setdefault(r["slot"], []).append(r["seconds"])
    # A pool job's time is its mean over its runs in the loop: the host's
    # speed shifts in steps that last seconds, and a median of single runs
    # snaps to whichever step dominated the window.  A failed job never
    # delivers: it is charged the whole timed window, which is longer than
    # any job that finished inside it.
    job_s = [statistics.fmean(runs[slot]) if ok else window
             for slot, (ok, _, _) in sorted(pool.items())]
    tail, percentile = _tail(job_s)
    return {
        "goodput_symbols_per_s": sum(r["symbols"] for r in good) / window,
        "trials_per_s": sum(r["trials"] for r in results) / window,
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": tail,
        "success_rate": sum(ok for ok, _, _ in pool.values()) / len(pool),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"job_s_tail": {"percentile": percentile, "samples": len(job_s)},
        "window_s": window, "job_s": job_s}


def per_layer(tracer, results: list, untraced: list) -> tuple:
    """Per-job means of layer self times (``*_s``) and counters from the
    traced runs, the round share, and the tracing overhead."""
    self_times, root_time = tracer.layer_totals()
    jobs = len(results)
    traced_wall = sum(r["seconds"] for r in results)
    untraced_wall = sum(r["seconds"] for r in untraced)
    counters = tracer.counters
    rounds = counters.get("multi_block.rounds", 0)
    values = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        if name == "multi_block.advancing_round_share":
            values[name] = counters.get("multi_block.advancing_rounds", 0) / rounds \
                if rounds else 0.0
        elif name == "trace.overhead_share":
            values[name] = (traced_wall - untraced_wall) / untraced_wall
        elif name.endswith("_s"):
            values[name] = self_times.get(name, 0.0) / jobs
        else:
            values[name] = counters.get(name, 0) / jobs
    accounting = {
        "traced_job_s": traced_wall / jobs,
        "cli_calls_s": root_time / jobs,
        "layer_self_s_sum": sum(self_times.values()) / jobs,
        "unreported_self_s": {k: v / jobs for k, v in self_times.items()
                              if k not in values},
    }
    return values, accounting


def _corpus_bytes(scale: dict):
    """In-memory (int64) and on-disk bytes of each corpus size in ``scale``."""
    if "L" not in scale:
        return {k: _corpus_bytes(v) for k, v in scale.items() if isinstance(v, dict)}
    sizes = scale["N"] if isinstance(scale["N"], list) else [scale["N"]]
    return [{"N": n, "in_memory_int64": 8 * scale["L"] * n,
             "on_disk": scale["word_bytes"] * scale["L"] * n} for n in sizes]


def environment(workload) -> dict:
    import numpy
    scale = workload.scale()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "scale": scale,
        "corpus_bytes": _corpus_bytes(scale),
        "last_level_cache_bytes": _llc_bytes(),
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "why": next(w["why"] for w in SPEC["workloads"]
                    if w["name"] == workload.name),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    try:
        setups = [_setup(workload, args.seed, work / f"setup{rep}")
                  for rep in range(SETUP_REPS)]
        tracer = Tracer() if args.trace else None
        results, untraced, window = timed_loop(workload, args.seed,
                                               args.seconds, tracer)
        guard = _rng_guard(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"environment": environment(workload)}))
    print(json.dumps({"setup_s": [s for s, _ in setups],
                      "setup_import_s": [i for _, i in setups]}))
    pool, steady = verdicts(results + untraced)
    failures = {}
    for ok, label, reason in pool.values():
        if not ok:
            key = f"{label}: {reason}"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    print(json.dumps({"pool_jobs": len(pool), "jobs_run": len(results),
                      "failed_pool_jobs": failures, "same_verdict_each_run": steady}))
    if guard:
        print(json.dumps({"rng_guard": guard}))
    if tracer is None:
        metrics, timing = end_to_end(results, window, pool)
        metrics["setup_s"] = statistics.median(s for s, _ in setups)
        print(json.dumps(timing | {"runs_s": [r["seconds"] for r in results]}))
    else:
        metrics, accounting = per_layer(tracer, results, untraced)
        print(json.dumps({"absent_wrapped_names": tracer.absent,
                          "accounting": accounting}))
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans)
        print(json.dumps({"spans_file": str(spans.relative_to(ROOT))}))
    correct = (steady and all(r["consistent"] for r in results + untraced)
               and guard.get("ok", True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(pool),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
