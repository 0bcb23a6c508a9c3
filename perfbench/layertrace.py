"""Outside-in layer trace: spans around calls into each module's public API.

The benchmark installs these wrappers in its traced worker process only; the
program itself is not changed.  Each name is patched where its caller looks
it up: ``cli`` imported ``relative_energy_table`` and ``cbar`` by name,
``potentials`` and ``disorder`` call their own module globals, methods are
looked up on their class, and ``quenched`` reaches the engine through
``engine.log_partition``.

A span is (job, name, parent span, start, end).  Spans stay in memory while
the run lasts; :meth:`Tracer.write_spans` stores them when it ends.  Self
time is a span's duration minus the time covered by its direct children.
Counters are aggregated per job and reset by :meth:`Tracer.end_job`.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict

LOOKUP = "qkernel.log_partition_at"


class _Frame:
    __slots__ = ("name", "index", "t0", "child_s", "miss")

    def __init__(self, name, index, t0):
        self.name = name
        self.index = index
        self.t0 = t0
        self.child_s = 0.0
        self.miss = False


class Tracer:
    """Span stack plus per-job counters; inert until ``active`` is set."""

    def __init__(self):
        self.active = False
        self.job = -1
        self._names: list = []
        self._name_id: dict = {}
        self._span_job = array("i")
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_t = array("d")
        self._stack: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def enter(self, name: str) -> _Frame:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self._names)
            self._names.append(name)
        index = len(self._span_name)
        self._span_job.append(self.job)
        self._span_name.append(nid)
        self._span_parent.append(self._stack[-1].index if self._stack else -1)
        t0 = time.perf_counter()
        self._span_t.append(t0)
        self._span_t.append(t0)
        frame = _Frame(name, index, t0)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self._span_t[2 * frame.index + 1] = t1
        dur = t1 - frame.t0
        self.calls[frame.name] += 1
        self.total_s[frame.name] += dur
        self.self_s[frame.name] += dur - frame.child_s
        if self._stack:
            self._stack[-1].child_s += dur

    def parent(self) -> _Frame | None:
        return self._stack[-1] if self._stack else None

    def begin_job(self, job: int) -> None:
        self.job = job
        self.active = True

    def end_job(self) -> dict:
        """Stop tracing and return this job's layer metrics."""
        self.active = False
        out = layer_metrics(self.calls, self.self_s, self.total_s, self.counts)
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()
        return out

    def write_spans(self, path) -> None:
        """Write every recorded span: a JSON header line, then raw arrays."""
        header = {
            "names": self._names,
            "spans": len(self._span_name),
            "layout": "int32 job[n], int32 name[n], int32 parent[n], "
                      "float64 (start, end)[n]; perf_counter seconds",
        }
        with open(path, "wb") as fp:
            fp.write((json.dumps(header) + "\n").encode())
            for arr in (self._span_job, self._span_name, self._span_parent, self._span_t):
                arr.tofile(fp)


def layer_metrics(calls, self_s, total_s, counts) -> dict:
    """Per-layer metrics of one job from its span aggregates."""
    requests = calls[LOOKUP]
    misses = counts["logz_misses"]
    return {
        "cli.main_self_s": self_s["cli.main"],
        "potentials.relative_energy_calls": calls["potentials.relative_energy"],
        "potentials.relative_energy_self_s": self_s["potentials.relative_energy"],
        "potentials.mobius_self_s": self_s["potentials.mobius_potential"],
        "potentials.table_entries": counts["table_entries"],
        "disorder.samples_drawn": calls["disorder.sample"],
        "disorder.sample_self_s": self_s["disorder.sample"],
        "disorder.c_xy_calls": calls["disorder.c_xy"],
        "disorder.c_xy_self_s": self_s["disorder.c_xy"],
        "qkernel.init_s": total_s["qkernel.init"],
        "qkernel.logz_requests": requests,
        "qkernel.logz_misses": misses,
        "qkernel.hit_ratio": (requests - misses) / requests if requests else 0.0,
        "qkernel.lookup_self_s": self_s[LOOKUP],
        "qkernel.log_q_calls": calls["qkernel.log_q"],
        "qkernel.log_q_self_s": self_s["qkernel.log_q"],
        "quenched.compiles": calls["quenched.compile"],
        "quenched.terms_compiled": counts["terms_compiled"],
        "quenched.compile_self_s": self_s["quenched.compile"],
        "engine.enum_sweeps": calls["engine.sweep"],
        "engine.enum_configs": counts["enum_configs"],
        "engine.enum_self_s": self_s["engine.sweep"],
        "engine.transfer_sweeps": calls["engine.log_partition_transfer"],
        "engine.plan_self_s": self_s["engine.plan_transfer"],
        "engine.transfer_self_s": self_s["engine.log_partition_transfer"],
    }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    """``fn`` inside a span; ``after(frame, args, result)`` updates counters."""

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(frame, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Patch the public entry points of every layer to record spans."""
    from jointgibbs import cli, disorder, engine, potentials
    from jointgibbs.qkernel import QKernelContext
    from jointgibbs.quenched import QuenchedEnsemble

    def count_entries(frame, args, table):
        tracer.counts["table_entries"] += len(table)

    def count_miss(frame, args, result):
        if frame.miss:
            tracer.counts["logz_misses"] += 1

    def count_configs(frame, args, result):
        system = args[0]
        tracer.counts["enum_configs"] += system.q ** system.n_sites

    cli.main = _wrap(tracer, "cli.main", cli.main)

    table_fn = _wrap(tracer, "potentials.relative_energy_table",
                     potentials.relative_energy_table, count_entries)
    cli.relative_energy_table = table_fn
    potentials.relative_energy_table = table_fn
    rel = _wrap(tracer, "potentials.relative_energy", potentials.relative_energy)
    cli.relative_energy = rel
    potentials.relative_energy = rel
    potentials.mobius_potential = _wrap(
        tracer, "potentials.mobius_potential", potentials.mobius_potential)

    cbar = _wrap(tracer, "disorder.cbar", disorder.cbar)
    cli.cbar = cbar
    disorder.cbar = cbar
    disorder.c_xy = _wrap(tracer, "disorder.c_xy", disorder.c_xy)
    disorder.DisorderSampler.sample = _wrap(
        tracer, "disorder.sample", disorder.DisorderSampler.sample)

    QKernelContext.__init__ = _wrap(tracer, "qkernel.init", QKernelContext.__init__)
    QKernelContext.log_partition_at = _wrap(
        tracer, LOOKUP, QKernelContext.log_partition_at, count_miss)
    QKernelContext.log_q = _wrap(tracer, "qkernel.log_q", QKernelContext.log_q)

    log_partition = _wrap(tracer, "quenched.log_partition", QuenchedEnsemble.log_partition)

    def log_partition_marking_miss(self, *args, **kwargs):
        parent = tracer.parent() if tracer.active else None
        if parent is not None and parent.name == LOOKUP:
            parent.miss = True
        return log_partition(self, *args, **kwargs)

    QuenchedEnsemble.log_partition = log_partition_marking_miss

    def count_terms(frame, args, system):
        tracer.counts["terms_compiled"] += len(system.term_sites)

    compile_plain = QuenchedEnsemble.compile
    compile_traced = _wrap(tracer, "quenched.compile", compile_plain, count_terms)

    def compile_(self):
        # compile() memoizes its system; only calls that build one are spans
        if getattr(self, "_system", None) is not None:
            return compile_plain(self)
        return compile_traced(self)

    QuenchedEnsemble.compile = compile_

    engine.log_partition = _wrap(tracer, "engine.log_partition", engine.log_partition)
    engine.sweep = _wrap(tracer, "engine.sweep", engine.sweep, count_configs)
    engine.plan_transfer = _wrap(tracer, "engine.plan_transfer", engine.plan_transfer)
    engine.log_partition_transfer = _wrap(
        tracer, "engine.log_partition_transfer", engine.log_partition_transfer)
