"""One workload process: set up, then run jobs back to back (one client).

Started by ``run.py`` with one JSON argument.  It prints ``ready`` as soon as
``jointgibbs`` and numpy are imported and the workload's model spec is built;
``run.py`` times process start to that line as set-up.  A ``probe`` stops
there.  Otherwise it runs jobs in a closed loop until the timed part (job wall
time only; verification is outside it) reaches ``seconds`` and at least
``min_jobs`` jobs have run, then prints one JSON line with every job's wall
time, the reference loop's time around it, and its verdict.  A ``traced`` process installs the layer wrappers first,
runs the counter self-test, and reports per-job layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

WALL_CAP_S = 120.0  # the loop stops here even if min_jobs is not reached


def reference_seconds(np) -> float:
    """Wall time of a fixed loop of dict and small-array work, outside jointgibbs.

    Load from other tenants of a shared host changes how fast every process
    runs, by up to 1.8x for minutes at a time.  Timed between jobs, this loop
    measures the machine's speed at that moment, and no change to the program
    can move it.  A job's time divided by the mean of the loop times on either
    side of it stays steady across those phases where raw seconds do not.
    """
    t0 = time.perf_counter()
    counts = {}
    for i in range(80000):
        key = (i % 997, i % 13)
        counts[key] = counts.get(key, 0.0) + 0.5 * i
    a = np.arange(4096.0)
    for _ in range(80):
        a = np.exp(-1e-3 * a) + 0.5 * a
    return time.perf_counter() - t0


def self_test(workloads, tracer, scratch: Path) -> dict:
    """Exact sweep and hit counts on a tiny table, and no enumeration on 5x5.

    Exact integration over the 2^4 disorder codes of a 4-site chain must sweep
    once per code and serve every other log-Z request from the cache.
    """
    tiny = workloads.TableExact(0, scratch, box="1x4")
    box5 = workloads.StripRatio(0, scratch, trials=2)
    counts = {}
    for name, workload in (("tiny", tiny), ("box5", box5)):
        job = workload.prepare(0)
        tracer.begin_job(-1)
        try:
            workload.run(job)
        finally:
            counts[name] = tracer.end_job()
            workload.cleanup(job)
    tiny, box5 = counts["tiny"], counts["box5"]

    codes = 2 ** 4
    checks = {
        "tiny_logz_misses": tiny["qkernel.logz_misses"] == codes,
        "tiny_compiles": tiny["quenched.compiles"] == codes,
        "tiny_enum_sweeps": tiny["engine.enum_sweeps"] == codes,
        "tiny_hits": tiny["qkernel.logz_requests"] > codes,
        "tiny_transfer_sweeps": tiny["engine.transfer_sweeps"] == 0,
        "box5_enum_sweeps": box5["engine.enum_sweeps"] == 0,
        "box5_transfer_sweeps": box5["engine.transfer_sweeps"] == box5["qkernel.logz_misses"] > 0,
    }
    return {"pass": all(checks.values()), "checks": checks, "tiny": tiny, "box5": box5}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    protocol = sys.stdout

    import numpy  # set-up includes importing numpy and jointgibbs
    from jointgibbs import engine

    import jobs as workloads

    scratch = Path(cfg["scratch"])
    workload = workloads.WORKLOADS[cfg["workload"]](cfg["seed"], scratch)
    print("ready", file=protocol, flush=True)
    if cfg["probe"]:
        return 0

    tracer = None
    result = {"numba_imports": engine.HAS_NUMBA, "numba_enabled": engine.numba_enabled()}
    if cfg["traced"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        result["self_test"] = self_test(workloads, tracer, scratch)

    records = []
    timed = 0.0
    ref_last = reference_seconds(numpy)
    start = time.perf_counter()
    index = 0
    while (timed < cfg["seconds"] or len(records) < cfg["min_jobs"]) and (
        time.perf_counter() - start < WALL_CAP_S
    ):
        record = {"index": index, "error": None}
        job = None
        try:
            job = workload.prepare(index)
            record["seed"] = job["seed"]
            if tracer is not None:
                tracer.begin_job(index)
            t0 = time.perf_counter()
            try:
                workload.run(job)
            finally:
                record["wall_s"] = time.perf_counter() - t0
                if tracer is not None:
                    record["layers"] = tracer.end_job()
                ref_next = reference_seconds(numpy)
                record["ref_s"] = 0.5 * (ref_last + ref_next)
                ref_last = ref_next
            t1 = time.perf_counter()
            workload.verify(job)
            record["verify_s"] = time.perf_counter() - t1
        except Exception as exc:  # a failed job is counted, never fatal to the run
            record["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if job is not None:
                workload.cleanup(job)
        timed += record.get("wall_s", 0.0)
        records.append(record)
        index += 1

    result["jobs"] = records
    result["timed_s"] = timed
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and cfg.get("spans"):
        tracer.write_spans(cfg["spans"])
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
