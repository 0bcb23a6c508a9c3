"""The benchmark's three workloads: one job each, and how a job is verified.

A job is one user-level computation.  It pays for its own ``QKernelContext``
and log-Z cache fill, as one CLI invocation does.  ``run`` is the timed part;
``verify`` runs outside the timed region and checks the job's output against
references stored in ``reference.json`` or against an independent route of
the library.  No check depends on the program's random streams, so a change
of sampler keeps the benchmark valid.

Why these three: ``table_exact`` reads a dense 2^9 table of log Z values
through the potential transform; ``decay_mc`` is the Monte Carlo decay path,
where distinct disorder codes saturate at 2^12; ``strip_ratio`` misses in a
2^25 code space and is the only workload on the transfer-matrix path.  A
change to the log-Z cache that helps one of these uses and costs another
shows up as a regression on that other workload.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
import tempfile
from pathlib import Path

from jointgibbs import cli
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import make_rfim
from jointgibbs.potentials import (
    NormalizingMeasure,
    PotentialTable,
    check_alpha_normalization,
    relative_energy,
)
from jointgibbs.qkernel import QKernelContext

HERE = Path(__file__).resolve().parent
MODEL = {"model": "rfim", "J": 0.3, "h": 0.5}

TABLE_BOX = "1x9"
DECAY_BOX = "1x12"
DECAY_M_VALUES = [1, 2, 3, 4]
DECAY_SAMPLES = 200
STRIP_SHAPE = (5, 5)
STRIP_TRIALS = 50

TOL_EXACT = 1e-10
TOL_REFERENCE = 1e-9
DECAY_STDERRS = 5.0
SUBSET_CHECKS = 5
RATIO_CHECKS = 3


class VerificationError(Exception):
    """A job's output failed one of its checks."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


def job_seed(workload: str, seed: int, index: int) -> int:
    """The seed of job ``index``, derived from the workload seed only."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def rfim():
    return make_rfim(MODEL["J"], MODEL["h"])


class CliWorkload:
    """A job is one in-process ``jointgibbs`` command writing to a fresh dir."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.spec = rfim()

    @functools.cached_property
    def reference(self) -> dict:
        with open(HERE / "reference.json") as fp:
            return json.load(fp)[self.name]

    def config(self) -> dict:
        raise NotImplementedError

    def argv(self, config_path: Path, out: Path, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, index: int) -> dict:
        work = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))
        config_path = work / "config.json"
        with open(config_path, "w") as fp:
            json.dump(self.config(), fp)
        seed = job_seed(self.name, self.seed, index)
        out = work / "out"
        return {"seed": seed, "dir": work, "out": out,
                "argv": self.argv(config_path, out, seed)}

    def run(self, job: dict) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(job["argv"])
        expect(code == 0, f"exit code {code}")

    def cleanup(self, job: dict) -> None:
        shutil.rmtree(job["dir"], ignore_errors=True)


class TableExact(CliWorkload):
    """``jointgibbs potential``: product-alpha table over a 9-site chain."""

    name = "table_exact"

    def __init__(self, seed: int, scratch: Path, box: str = TABLE_BOX):
        super().__init__(seed, scratch)
        self.box = box
        self.alpha = NormalizingMeasure.product(self.spec.nu)
        self._check_ctx = None

    def config(self) -> dict:
        return {"model": MODEL, "box": self.box, "bc": "free", "alpha": "product"}

    def argv(self, config_path, out, seed):
        return ["potential", "--config", str(config_path), "--out", str(out)]

    def verify(self, job: dict) -> None:
        with open(job["out"] / "table.json") as fp:
            table = PotentialTable.load(fp)
        worst = check_alpha_normalization(table, self.alpha, law=self.spec.nu)
        expect(worst <= TOL_EXACT, f"alpha normalization off by {worst:.3e}")

        for ref in self.reference["entries"]:
            sites = [tuple(s) for s in ref["sites"]]
            entry = table.entry(sites)
            expect(entry is not None, f"entry {sites} missing")
            dev = max(abs(a - b) for a, b in zip(entry.values.tolist(), ref["values"]))
            expect(len(entry.values) == len(ref["values"]) and dev <= TOL_REFERENCE,
                   f"entry {sites} deviates from reference by {dev:.3e}")

        # subset sums of the table against the relative energy evaluated directly
        if self._check_ctx is None:
            self._check_ctx = QKernelContext(self.spec, cli.parse_box(self.box))
        rng = random.Random(job["seed"])
        sites = list(self._check_ctx.box.sites())
        entries = table.support()
        for _ in range(SUBSET_CHECKS):
            S = SiteSet(rng.sample(sites, rng.randint(1, len(sites))))
            eta = {s: rng.choice(self.spec.disorder_values) for s in S}
            total = sum(table.value(A, eta) for A in entries if A.issubset(S))
            direct = relative_energy(self._check_ctx, S, eta, self.alpha)
            expect(abs(total - direct) <= TOL_EXACT,
                   f"subset sum on {S.sites} off by {abs(total - direct):.3e}")


class DecayMc(CliWorkload):
    """``jointgibbs correlations``: Monte Carlo flip covariances on a 12-chain."""

    name = "decay_mc"

    def config(self) -> dict:
        return {"model": MODEL, "box": DECAY_BOX, "bc": "free",
                "m_values": DECAY_M_VALUES, "samples": DECAY_SAMPLES}

    def argv(self, config_path, out, seed):
        return ["correlations", "--config", str(config_path), "--seed", str(seed),
                "--out", str(out)]

    def verify(self, job: dict) -> None:
        # cbar(m) is the largest of the per-flip-value means, so checking every
        # mean checks cbar without the upward bias of comparing maxima
        with open(job["out"] / "correlations.csv", newline="") as fp:
            rows = list(csv.DictReader(fp))
        expect(len(rows) == 4 * len(DECAY_M_VALUES), f"{len(rows)} correlation rows")
        cbar = {}
        for row in rows:
            m, value = int(row["m"]), float(row["cbar"])
            exact = self.reference["exact_abs_c"][f"{m},{row['eta_x']},{row['eta_y']}"]
            stderr = exact["sd"] / math.sqrt(DECAY_SAMPLES)
            dev = abs(value - exact["mean"])
            expect(dev <= DECAY_STDERRS * stderr,
                   f"m={m} flips ({row['eta_x']}, {row['eta_y']}): {value:.4e} is "
                   f"{dev / stderr:.1f} stderr from the exact average {exact['mean']:.4e}")
            cbar[m] = max(cbar.get(m, 0.0), value)
        values = [cbar[m] for m in DECAY_M_VALUES]
        expect(all(a > b for a, b in zip(values, values[1:])),
               f"cbar does not decrease in m: {values}")


class StripRatio:
    """Partition-ratio properties on a fresh 5x5 context (transfer matrix)."""

    name = "strip_ratio"

    def __init__(self, seed: int, scratch: Path, trials: int = STRIP_TRIALS):
        self.seed = seed
        self.trials = trials
        self.spec = rfim()
        self.box = Box.from_shape(*STRIP_SHAPE)

    def prepare(self, index: int) -> dict:
        return {"seed": job_seed(self.name, self.seed, index)}

    def run(self, job: dict) -> None:
        ctx = QKernelContext(self.spec, self.box)
        job["ctx"] = ctx
        job["report"] = ctx.check_q_properties(
            trials=self.trials, seed=job["seed"], tol=TOL_EXACT)

    def verify(self, job: dict) -> None:
        report = job["report"]
        expect(report["pass"], f"ratio properties fail: {report['properties']}")
        # the expectation route is an independent evaluation of the same ratio
        ctx = job["ctx"]
        rng = random.Random(job["seed"])
        values = self.spec.disorder_values
        sites = list(self.box.sites())
        for _ in range(RATIO_CHECKS):
            V = rng.sample(sites, rng.randint(1, 3))
            eta1 = {s: rng.choice(values) for s in V}
            eta2 = {s: rng.choice(values) for s in V}
            rest = {s: rng.choice(values) for s in ctx.eta_domain if s not in V}
            direct = ctx.log_q(V, eta1, eta2, rest)
            via = ctx.log_q_via_expectation(V, eta1, eta2, rest)
            expect(abs(direct - via) <= TOL_EXACT,
                   f"log_q routes disagree by {abs(direct - via):.3e} on {V}")

    def cleanup(self, job: dict) -> None:
        job.pop("ctx", None)


WORKLOADS = {w.name: w for w in (TableExact, DecayMc, StripRatio)}
