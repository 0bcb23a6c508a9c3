"""End-to-end benchmark of jointgibbs: three workloads, one client each.

Usage, from the root of a checkout (the program is imported from its
``src/``; nothing needs to be installed)::

    python3 perfbench/run.py --workload table_exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: a single worker process and
thread (BLAS pinned to one thread) where the next job starts when the
previous one has finished.  Job inputs derive from ``--seed`` only.  Every
job's output is verified outside the timed part; a failed job counts in
``failed`` and does not stop the run.

``--trace 0`` reports the end-to-end metrics.  Job times are gated in
reference units: a job's wall time divided by the time of a fixed loop that
does not call jointgibbs, run right before and after the job (see
``worker.reference_seconds``).  On a shared host, load from other tenants
moves raw seconds by up to 1.8x for minutes at a time; the ratio stays within
a few percent.  So the gated metrics are ``jobs_per_kref`` (verified jobs per
1000 reference-loop times of job work), ``job_p50_ref``, ``job_tail_ref``
(the highest percentile with at least ten jobs beyond it), ``peak_rss_mb``
and ``setup_s`` (median, over several fresh processes, of process start to
the first job being ready).  The same job statistics in seconds as measured,
``jobs_per_s``, ``job_p50_s`` and ``job_tail_s``, are printed and recorded
too.  ``--trace 1`` runs an untraced worker and then a traced one for half
the time each, and reports per-job means of the layer metrics of
``layertrace.py`` plus ``trace.overhead_s``, the traced minus the untraced
median job time; it also runs the counter self-test.  The last line of
standard output is one JSON object with the gated metrics; the lines before
it are for people.  Records, with the environment, go to ``.perfbench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("table_exact", "decay_mc", "strip_ratio")
BLAS_PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 9  # extra fresh processes timed to set-up, besides the worker
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs above it
MIN_JOBS = TAIL_BEYOND + 1
TRACE_MIN_JOBS = 3
RUN_DEADLINE_S = 170.0

UNITS = {
    "jobs_per_kref": "1/kref",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
}
GATED = ("jobs_per_kref", "job_p50_ref", "job_tail_ref", "peak_rss_mb", "setup_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path):
    """HEAD of the checkout's own repository, read without leaving it."""
    git = root / ".git"
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


def worker_env() -> dict:
    env = dict(os.environ)
    for name in BLAS_PIN:
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + str(HERE)
    return env


def environment(env: dict) -> dict:
    """Recorded in this process, which never imports numpy."""
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the environment was recorded")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "JOINTGIBBS_DISABLE_NUMBA": os.environ.get("JOINTGIBBS_DISABLE_NUMBA"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_pin": {name: env[name] for name in BLAS_PIN},
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def spawn(cfg: dict, env: dict, deadline: float):
    """Start a worker; return (seconds until it was ready, its result or None)."""
    t0 = time.perf_counter()
    # unbuffered, so reading the ready line cannot swallow the result after it
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(cfg)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, bufsize=0,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"{cfg['workload']} worker did not start")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['workload']} worker passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{cfg['workload']} worker exited with {proc.returncode}")
    out = out.decode().strip()
    return setup, (json.loads(out.splitlines()[-1]) if out else None)


def tail(walls: list) -> tuple:
    """(value, percentile) of the slowest job with TAIL_BEYOND jobs beyond it."""
    n = len(walls)
    if n < MIN_JOBS:
        raise BenchError(f"{n} jobs are too few for a tail with {TAIL_BEYOND} beyond it")
    return sorted(walls)[n - MIN_JOBS], 100.0 * (n - TAIL_BEYOND) / n


def job_counts(result: dict) -> tuple:
    jobs = result["jobs"]
    return len(jobs), sum(1 for j in jobs if j["error"] is not None)


def end_to_end(workload: str, seed: int, seconds: int, env: dict, scratch: Path, deadline):
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "min_jobs": MIN_JOBS,
           "traced": False, "scratch": str(scratch), "probe": True}
    setups = [spawn(cfg, env, deadline)[0] for _ in range(SETUP_PROBES)]
    setup, result = spawn({**cfg, "probe": False}, env, deadline)
    setups.append(setup)
    attempted, failed = job_counts(result)
    verified = attempted - failed
    timed = [j for j in result["jobs"] if "wall_s" in j]
    walls = [j["wall_s"] for j in timed]
    refs = [j["wall_s"] / j["ref_s"] for j in timed]
    tail_ref, tail_pct = tail(refs)
    metrics = {
        "jobs_per_kref": 1000.0 * verified / sum(refs),
        "job_p50_ref": statistics.median(refs),
        "job_tail_ref": tail_ref,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "jobs_per_s": verified / result["timed_s"],
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail(walls)[0],
    }
    tail_note = f"p{tail_pct:.1f} of {len(walls)} jobs, {TAIL_BEYOND} beyond it"
    notes = {
        "jobs_per_kref": f"{verified} verified jobs per 1000 reference-loop times",
        "job_p50_ref": f"{len(walls)} jobs, each in reference-loop times",
        "job_tail_ref": tail_note,
        "peak_rss_mb": "worker process",
        "setup_s": f"median of {len(setups)} process starts",
        "jobs_per_s": f"{verified} verified jobs in {result['timed_s']:.2f} s timed",
        "job_p50_s": f"{len(walls)} jobs",
        "job_tail_s": tail_note,
    }
    return {"metrics": metrics, "units": UNITS, "notes": notes, "gated": GATED,
            "attempted": attempted, "failed": failed, "ok": True,
            "record": {"setups_s": setups, "tail_percentile": tail_pct, "worker": result}}


def per_layer(workload: str, seed: int, seconds: int, env: dict, scratch: Path, deadline,
              spans: Path):
    cfg = {"workload": workload, "seed": seed, "seconds": seconds / 2,
           "min_jobs": TRACE_MIN_JOBS, "scratch": str(scratch), "probe": False}
    _, plain = spawn({**cfg, "traced": False}, env, deadline)
    _, traced = spawn({**cfg, "traced": True, "spans": str(spans)}, env, deadline)
    layers = [j["layers"] for j in traced["jobs"] if "layers" in j]
    if not layers:
        raise BenchError("no traced job finished")
    metrics = {k: statistics.fmean(job[k] for job in layers) for k in layers[0]}
    requests = sum(job["qkernel.logz_requests"] for job in layers)
    misses = sum(job["qkernel.logz_misses"] for job in layers)
    metrics["qkernel.hit_ratio"] = (requests - misses) / requests if requests else 0.0

    def p50(result):
        return statistics.median(j["wall_s"] for j in result["jobs"] if "wall_s" in j)

    metrics["trace.overhead_s"] = p50(traced) - p50(plain)
    units = {k: "s" if k.endswith("_s") else ("ratio" if k.endswith("_ratio") else "count")
             for k in metrics}
    a1, f1 = job_counts(plain)
    a2, f2 = job_counts(traced)
    test = traced["self_test"]
    notes = {k: f"mean over {len(layers)} traced jobs" for k in metrics}
    notes["trace.overhead_s"] = (f"traced p50 of {len(layers)} jobs minus untraced p50 "
                                 f"of {len(plain['jobs'])} jobs")
    return {"metrics": metrics, "units": units, "notes": notes, "gated": tuple(metrics),
            "attempted": a1 + a2, "failed": f1 + f2, "ok": test["pass"],
            "record": {"self_test": test, "untraced": plain, "traced": traced}}


def run_workload(args, env, envrec, out_dir: Path) -> dict:
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        spans = out_dir / f"spans-{args.workload}.bin"
        run = per_layer(args.workload, args.seed, args.seconds, env, scratch, deadline, spans)
    else:
        run = end_to_end(args.workload, args.seed, args.seconds, env, scratch, deadline)
    shutil.rmtree(scratch, ignore_errors=True)
    metrics, units, notes, record = run["metrics"], run["units"], run["notes"], run["record"]
    attempted, failed = run["attempted"], run["failed"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key in ("python", "numpy", "numba_installed", "JOINTGIBBS_DISABLE_NUMBA",
                "nproc", "blas_pin", "git_commit"):
        print(f"  env {key}: {envrec[key]}")
    worker = record.get("worker") or record.get("traced")
    print(f"  env numba_imports: {worker['numba_imports']}  "
          f"numba_enabled: {worker['numba_enabled']}")
    for name, value in metrics.items():
        gate = "" if name in run["gated"] else "  [not gated]"
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {notes[name]}{gate}")
    print(f"  {'fail_ratio':36s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted")
    if args.trace:
        print(f"  counter self-test: {'pass' if run['ok'] else 'FAIL'} "
              f"{record['self_test']['checks']}")

    result = {
        "correct": failed == 0 and run["ok"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in run["gated"]},
    }
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fp:
        json.dump({"args": vars(args), "env": envrec, "result": result, "metrics": metrics,
                   "units": units, "notes": notes, "record": record}, fp, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the ``finally`` blocks that stop the workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "jointgibbs" / "__init__.py").is_file():
        print(f"error: no jointgibbs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        env = worker_env()
        envrec = environment(env)
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                         env, envrec, out_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
