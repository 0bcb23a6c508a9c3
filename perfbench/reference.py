"""Regenerate ``reference.json``, the stored answers the benchmark checks against.

Run from the repository root: ``python3 perfbench/reference.py``.

* ``table_exact``: entries of the product-alpha potential table of the RFIM
  on the 9-site chain, for every set of at most three sites and for the
  whole window.
* ``decay_mc``: the exact disorder average behind ``cbar(m)`` on the 12-chain,
  by enumerating all 2^12 disorder codes with their product-law weights: for
  each separation and pair of flip values, E|c_xy| and the standard deviation
  of |c_xy|, which sets the standard error of a Monte Carlo estimate
  independently of how it was sampled.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from jointgibbs.disorder import c_xy, representative_pair  # noqa: E402
from jointgibbs.cli import parse_box  # noqa: E402
from jointgibbs.potentials import NormalizingMeasure, relative_energy_table  # noqa: E402
from jointgibbs.qkernel import QKernelContext  # noqa: E402

import jobs  # noqa: E402


def table_entries() -> list:
    spec = jobs.rfim()
    ctx = QKernelContext(spec, parse_box(jobs.TABLE_BOX))
    table = relative_energy_table(ctx, NormalizingMeasure.product(spec.nu))
    return [
        {"sites": [list(s) for s in A], "values": entry.values.tolist()}
        for A, entry in table.items()
        if len(A) <= 3 or len(A) == 9
    ]


def exact_abs_c() -> dict:
    spec = jobs.rfim()
    ctx = QKernelContext(spec, parse_box(jobs.DECAY_BOX))
    total = float(sum(spec.nu.values()))
    law = {v: w / total for v, w in spec.nu.items()}
    values = spec.disorder_values
    pairs = {m: representative_pair(ctx.box, m) for m in jobs.DECAY_M_VALUES}
    keys = [(m, vx, vy) for m in pairs for vx in values for vy in values]
    first = dict.fromkeys(keys, 0.0)
    second = dict.fromkeys(keys, 0.0)
    for combo in product(values, repeat=len(ctx.eta_domain)):
        weight = 1.0
        for v in combo:
            weight *= law[v]
        tilde = dict(zip(ctx.eta_domain, combo))
        for key in keys:
            m, vx, vy = key
            c = abs(c_xy(ctx, *pairs[m], vx, vy, tilde))
            first[key] += weight * c
            second[key] += weight * c * c
    return {
        f"{m},{vx},{vy}": {
            "mean": first[(m, vx, vy)],
            "sd": math.sqrt(max(second[(m, vx, vy)] - first[(m, vx, vy)] ** 2, 0.0)),
        }
        for m, vx, vy in keys
    }


def main() -> None:
    reference = {
        "model": jobs.MODEL,
        "table_exact": {"box": jobs.TABLE_BOX, "entries": table_entries()},
        "decay_mc": {"box": jobs.DECAY_BOX, "exact_abs_c": exact_abs_c()},
    }
    with open(HERE / "reference.json", "w") as fp:
        json.dump(reference, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
