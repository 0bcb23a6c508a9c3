"""Batch experiment runner.

Every computation in the package is exposed as a subcommand driven by a
JSON config plus a handful of override flags, and every run can emit a
manifest sufficient to reproduce it exactly.  Commands:

    check          exact-identity suites (ratio properties, subset
                   transform roundtrip, normalization, martingale,
                   partial sums, reconstruction); exit 1 on violation
    potential      build and write a potential table + summary
    converge       volume study: truncation diagnostic and partial sums
    correlations   averaged flip-covariance decay, budget, and fit
    dilute-coeffs  closed-form vacuum coefficients of the dilute model

Exit codes: 0 pass, 1 invariant violation, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CapExceededError, ConfigError, JointGibbsError
from .lattice import Box, SiteSet, r_neighborhood
from .model import BoundaryCondition, load_model, make_rfim
from .potentials import (
    ConstantEntry,
    NormalizingMeasure,
    PotentialTable,
    center_potential,
    check_alpha_normalization,
    check_martingale,
    epsilon_diagnostic,
    ising_free_log_partition,
    mobius_potential,
    partial_sum,
    partial_sum_expected,
    reconstruct_conditional,
    relative_energy,
    relative_energy_table,
)
from .qkernel import QKernelContext
from .disorder import CBAR_NOISE_FLOOR, cbar, decay_budget, write_correlation_csv
from .stats import slope_with_ci

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def parse_box(text: str) -> Box:
    """Parse a dxWxH box spec: leading dimension count, then extents."""
    parts = text.lower().split("x")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"bad box spec {text!r} (want e.g. 2x3x3)") from None
    if len(nums) < 2 or nums[0] != len(nums) - 1:
        raise ConfigError(
            f"bad box spec {text!r}: leading number must be the dimension"
        )
    return _box_of(nums[1:], text)


def _box_of(extents: list, given) -> Box:
    if not extents or min(extents) < 1:
        raise ConfigError(f"bad box {given!r}: extents must be positive")
    return Box.from_shape(*extents)


def _box_from_config(value) -> Box:
    if isinstance(value, str):
        return parse_box(value)
    if isinstance(value, (list, tuple)):
        try:
            extents = [int(v) for v in value]
        except (TypeError, ValueError):
            raise ConfigError(f"bad box value {value!r}") from None
        return _box_of(extents, value)
    raise ConfigError(f"bad box value {value!r}")


def _field(cfg: dict, key: str, default, convert):
    """``convert`` applied to a config field; a ConfigError names a bad one."""
    value = cfg.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad config field {key!r}: {value!r}") from None


def _require_inside(window_sites, box: Box) -> None:
    if not SiteSet(window_sites).issubset(box):
        raise ConfigError(f"window is not inside the box {box.to_json()}")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fp:
            cfg = json.load(fp)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    version = cfg.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config version {version}")
    return cfg


def resolve(cfg: dict, args) -> dict:
    """Flags override config fields; fill in defaults."""
    out = dict(cfg)
    if getattr(args, "box", None):
        out["box"] = args.box
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "samples", None) is not None:
        out["samples"] = args.samples
    if getattr(args, "tol", None) is not None:
        out["tol"] = args.tol
    if getattr(args, "out", None) is not None:
        out["out"] = args.out
    return out


def build_model(cfg: dict):
    spec_cfg = cfg.get("model")
    if spec_cfg is None:
        return make_rfim(0.3, 0.5)
    try:
        return load_model(spec_cfg)
    except ValueError as exc:
        raise ConfigError(f"bad model config: {exc}") from None


def build_bc(cfg: dict) -> BoundaryCondition:
    bc = cfg.get("bc", "free")
    if bc == "free":
        return BoundaryCondition.free()
    if isinstance(bc, dict) and bc.get("kind") == "fixed":
        if "fill" in bc:
            return BoundaryCondition.fixed(fill=bc["fill"])
        if "sigma" in bc:
            sigma = {tuple(json.loads(k) if isinstance(k, str) else k): v
                     for k, v in bc["sigma"].items()}
            return BoundaryCondition.fixed(sigma)
        raise ConfigError("fixed bc needs 'fill' or 'sigma'")
    raise ConfigError(f"bad bc {bc!r}")


def build_alpha(cfg: dict, spec) -> NormalizingMeasure:
    a = cfg.get("alpha", {"kind": "product"})
    if isinstance(a, str):
        a = {"kind": a}
    if a.get("kind") == "product":
        return NormalizingMeasure.product(spec.nu)
    if a.get("kind") in ("vacuum", "point"):
        if "fill" not in a:
            raise ConfigError("vacuum alpha needs a 'fill' value")
        fill = a["fill"]
        if isinstance(fill, list):
            fill = tuple(fill)
        return NormalizingMeasure.point_mass(fill=fill)
    raise ConfigError(f"bad alpha {a!r}")


def require_seed(cfg: dict) -> int:
    if cfg.get("seed") is None:
        raise ConfigError("--seed is mandatory for Monte Carlo commands")
    return _field(cfg, "seed", None, int)


def emit(cfg: dict, command: str, artifacts: dict, report: dict, contexts=()) -> None:
    """Write artifacts + manifest to --out, or print the report.

    The manifest records the log-Z counts of ``contexts``, summed, under
    ``logz``.
    """
    out = cfg.get("out")
    manifest = {
        "command": command,
        "schema_version": SCHEMA_VERSION,
        "package": "jointgibbs",
        "version": __version__,
        "config": {k: v for k, v in cfg.items() if k != "out"},
    }
    if contexts:
        manifest["logz"] = {k: sum(c.counts[k] for c in contexts) for k in contexts[0].counts}
    if out is None:
        print(json.dumps(report, indent=1, default=str))
        return
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        path = root / name
        with open(path, "w") as fp:
            if name.endswith(".json"):
                json.dump(content, fp, indent=1, default=str)
            else:
                fp.write(content)
    with open(root / "manifest.json", "w") as fp:
        json.dump(manifest, fp, indent=1, default=str)
    print(json.dumps(report, indent=1, default=str))


def _entry_max_abs(entry) -> float:
    if isinstance(entry, ConstantEntry):
        return abs(entry.v)
    return float(np.abs(entry.values).max())


def prune_table(table: PotentialTable, threshold: float = 0.0) -> PotentialTable:
    out = PotentialTable(
        table.window_box or table.window_sites, table.alpha, dict(table.meta)
    )
    for A, entry in table.items():
        if _entry_max_abs(entry) > threshold:
            out.set(A.sites, entry)
    return out


def table_summary(table: PotentialTable) -> dict:
    by_diameter: dict = {}
    for A, entry in table.items():
        d = A.diameter() if hasattr(A, "diameter") else 0
        cur = by_diameter.setdefault(d, {"count": 0, "max_abs": 0.0})
        cur["count"] += 1
        cur["max_abs"] = max(cur["max_abs"], _entry_max_abs(entry))
    return {
        "entries": len(table),
        "alpha": table.alpha,
        "by_diameter": {str(k): v for k, v in sorted(by_diameter.items())},
    }


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(cfg: dict) -> int:
    spec = build_model(cfg)
    box = _box_from_config(cfg.get("box", "2x3x3"))
    bc = build_bc(cfg)
    tol = _field(cfg, "tol", 1e-9, float)
    trials = _field(cfg, "trials", 50, int)
    seed = _field(cfg, "seed", 0, int)
    ctx = QKernelContext(spec, box, bc)
    contexts = [ctx]
    alpha = build_alpha(cfg, spec)
    rng = np.random.default_rng(seed)
    values = spec.disorder_values

    def rand_eta(sites):
        return {s: values[int(k)] for s, k in zip(sites, rng.integers(0, len(values), len(sites)))}

    sections = []

    def section(name, violation, witness=None):
        entry = {"name": name, "max_abs_violation": violation, "tol": tol,
                 "pass": violation <= tol}
        if witness is not None and violation > tol:
            entry["witness"] = witness
        sections.append(entry)

    # ratio identities on random sub-boxes
    qprops = ctx.check_q_properties(trials=trials, seed=seed, tol=tol)
    for p in qprops["properties"]:
        section("ratio_" + p["property"], p["max_abs_violation"], p.get("witness"))

    # a small window drives the table-based identities
    win_cfg = cfg.get("window")
    if win_cfg is not None:
        window = _box_from_config(win_cfg)
    else:
        shape = tuple(min(2, hi - lo + 1) for lo, hi in zip(box.lower, box.upper))
        window = Box(box.lower, tuple(l + s - 1 for l, s in zip(box.lower, shape)))
    table_path = cfg.get("potential")
    if table_path is not None:
        try:
            with open(table_path) as fp:
                table = PotentialTable.load(fp)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read potential table: {exc}") from None
        if table.window_sites is not None:
            window = SiteSet(table.window_sites)
    win_sites = tuple(window.sites()) if isinstance(window, Box) else window.sites
    _require_inside(win_sites, box)
    if table_path is None:
        table = relative_energy_table(ctx, alpha, window=window)

    # subset-transform roundtrip: partial sums against the direct energies
    worst, witness = 0.0, None
    for _ in range(trials // 5 + 1):
        k = int(rng.integers(1, len(win_sites) + 1))
        pick = sorted(rng.choice(len(win_sites), size=k, replace=False))
        S = SiteSet([win_sites[i] for i in pick])
        eta = rand_eta(win_sites)
        total = sum(table.value(A, eta) for A in table.support(eta) if A.issubset(S))
        direct = relative_energy(ctx, S, {s: eta[s] for s in S}, alpha)
        r = abs(total - float(direct))
        if r > worst:
            worst, witness = r, {"subset": [list(s) for s in S]}
    section("transform_roundtrip", worst, witness)

    section(
        "alpha_normalization",
        check_alpha_normalization(table, alpha, law=spec.nu),
        None,
    )

    # martingale residuals on nested patches
    worst, witness = 0.0, None
    for _ in range(max(trials // 5, 3)):
        k = int(rng.integers(2, len(win_sites) + 1))
        pick = sorted(rng.choice(len(win_sites), size=k, replace=False))
        delta = SiteSet([win_sites[i] for i in pick])
        j = int(rng.integers(1, k))
        lam = SiteSet(delta.sites[:j])
        eta = rand_eta(lam.sites)
        r = abs(check_martingale(ctx, lam, delta, eta, alpha))
        if r > worst:
            worst, witness = r, {"lam": [list(s) for s in lam], "delta": [list(s) for s in delta]}
    section("martingale", worst, witness)

    # partial sums against the independent averaged-ratio route
    worst, witness = 0.0, None
    for _ in range(max(trials // 5, 3)):
        k = int(rng.integers(1, len(win_sites) + 1))
        pick = sorted(rng.choice(len(win_sites), size=k, replace=False))
        delta = SiteSet([win_sites[i] for i in pick])
        j = int(rng.integers(1, k + 1))
        lam = SiteSet(delta.sites[:j])
        eta = rand_eta(ctx.eta_domain)
        lhs = partial_sum(table, lam, delta, eta)
        rhs = partial_sum_expected(ctx, lam, delta, eta, alpha)
        r = abs(lhs - rhs)
        if r > worst:
            worst, witness = r, {"lam": [list(s) for s in lam], "delta": [list(s) for s in delta]}
    section("partial_sum", worst, witness)

    # reconstruction equals the direct conditional at the full window
    if table_path is None and alpha.is_product:
        small_box = Box.from_shape(
            *(min(2, hi - lo + 1) for lo, hi in zip(box.lower, box.upper))
        )
        ctx2 = QKernelContext(spec, small_box, bc)
        contexts.append(ctx2)
        table2 = relative_energy_table(ctx2, alpha)
        lam = SiteSet([small_box.lower])
        sigma_rest = {s: spec.spin_values[0] for s in small_box.sites() if s not in lam}
        eta_rest = rand_eta([s for s in ctx2.eta_domain if s not in lam])
        direct = ctx2.joint_conditional(lam, sigma_rest, eta_rest)
        rebuilt = reconstruct_conditional(ctx2, table2, lam, small_box, sigma_rest, eta_rest)
        worst = max(abs(direct[k] - rebuilt[k]) for k in direct)
        section("reconstruction", worst, None)

    ok = all(s["pass"] for s in sections)
    report = {
        "command": "check",
        "model": spec.name,
        "box": box.to_json(),
        "boundary": bc.kind,
        "tol": tol,
        "sections": sections,
        "pass": ok,
    }
    emit(cfg, "check", {"report.json": report}, report, contexts)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def cmd_potential(cfg: dict) -> int:
    spec = build_model(cfg)
    box = _box_from_config(cfg.get("box", "2x2x2"))
    bc = build_bc(cfg)
    alpha = build_alpha(cfg, spec)
    window = _box_from_config(cfg["window"]) if "window" in cfg else box
    _require_inside(window.sites(), box)
    ctx = QKernelContext(spec, box, bc)
    try:
        table = relative_energy_table(ctx, alpha, window=window)
    except CapExceededError as exc:
        raise ConfigError(f"table refused: {exc}") from None
    if cfg.get("center"):
        table = center_potential(table, spec.nu)
    table = prune_table(table, _field(cfg, "prune", 0.0, float))
    summary = table_summary(table)
    report = {"command": "potential", "model": spec.name, "summary": summary}
    emit(cfg, "potential", {"table.json": table.to_json(), "summary.json": summary}, report, [ctx])
    return 0


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def cmd_converge(cfg: dict) -> int:
    spec = build_model(cfg)
    bc = build_bc(cfg)
    alpha = build_alpha(cfg, spec)
    boxes = [_box_from_config(b) for b in cfg.get("boxes", ["1x4", "1x6", "1x8"])]
    sizes = [len(tuple(b.sites())) for b in boxes]
    if any(b >= a for a, b in zip(sizes[1:], sizes)):
        raise ConfigError("box sequence must be strictly increasing")
    radii = _field(cfg, "radii", [1, 2, 3, 4], lambda v: [int(r) for r in v])
    samples = _field(cfg, "samples", 1000, int)
    seed = require_seed(cfg)
    fill = cfg.get("eta_fill", spec.disorder_values[0])
    if isinstance(fill, list):
        fill = tuple(fill)

    lines = ["box,site,r,epsilon,stderr,samples,partial_sum"]
    trend_flags = []
    contexts = []
    for b in boxes:
        ctx = QKernelContext(spec, b, bc)
        contexts.append(ctx)
        x = b.center()
        usable = [r for r in radii if r <= max(hi - lo for lo, hi in zip(b.lower, b.upper))]
        diag = epsilon_diagnostic(ctx, x, usable, samples=samples, seed=seed, alpha=alpha if alpha.is_product else None)
        eta = {s: fill for s in ctx.eta_domain}
        shape = "x".join(str(hi - lo + 1) for lo, hi in zip(b.lower, b.upper))
        for r, eps, err in zip(diag.radii, diag.epsilon, diag.stderr):
            ball = r_neighborhood(SiteSet([x]), r) & SiteSet(b.sites())
            try:
                ps = partial_sum_expected(ctx, SiteSet([x]), ball, eta, alpha)
                ps_text = f"{ps!r}"
            except CapExceededError:
                ps_text = ""
            lines.append(f"{shape},{list(x)},{r},{eps!r},{err!r},{samples},{ps_text}")
        non_increasing = all(
            diag.epsilon[i + 1] <= diag.epsilon[i] + 2 * (diag.stderr[i] + diag.stderr[i + 1])
            for i in range(len(diag.epsilon) - 1)
        )
        trend_flags.append({"box": shape, "non_increasing_within_2se": non_increasing})
    csv_text = "\n".join(lines) + "\n"
    report = {"command": "converge", "model": spec.name, "trend": trend_flags}
    emit(cfg, "converge", {"converge.csv": csv_text, "trend.json": trend_flags}, report, contexts)
    return 0


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def cmd_correlations(cfg: dict) -> int:
    spec = build_model(cfg)
    box = _box_from_config(cfg.get("box", "1x12"))
    bc = build_bc(cfg)
    samples = _field(cfg, "samples", 2000, int)
    seed = require_seed(cfg)
    ms = _field(cfg, "m_values", [1, 2, 3, 4], lambda v: [int(m) for m in v])
    extent = box.upper[0] - box.lower[0] + 1
    if not all(1 <= m < extent for m in ms):
        raise ConfigError(f"m_values {ms} must lie in 1..{extent - 1} for this box")
    ctx = QKernelContext(spec, box, bc)
    ests = [cbar(ctx, m, samples, seed) for m in ms]
    d = len(box.lower)
    weight = _field(cfg, "weight", 1.0, float)
    budget = decay_budget({e.m: e for e in ests}, weight, d, spec=spec)
    # fit log cbar against m only where cbar rises above rounding noise
    above = [e for e in ests if e.cbar > CBAR_NOISE_FLOOR]
    fit = {"slope": None, "halfwidth95": None, "status": "no signal",
           "noise_floor": CBAR_NOISE_FLOOR, "m_fitted": []}
    if len(above) >= 3:
        beta, half = slope_with_ci(
            [e.m for e in above], [math.log(e.cbar) for e in above]
        )
        fit.update(slope=beta, halfwidth95=half, status="fitted",
                   m_fitted=[e.m for e in above])
    import io

    buf = io.StringIO()
    write_correlation_csv(ests, buf)
    report = {
        "command": "correlations",
        "model": spec.name,
        "cbar": {str(e.m): {"value": e.cbar, "stderr": e.stderr} for e in ests},
        "decay_budget": {
            "value": budget.value, "c1": budget.c1, "c2": budget.c2,
            "mbar": budget.mbar, "truncated_at": budget.truncated_at,
        },
        "fit": fit,
    }
    emit(cfg, "correlations", {"correlations.csv": buf.getvalue(), "summary.json": report}, report,
         [ctx])
    return 0


# ---------------------------------------------------------------------------
# dilute-coeffs
# ---------------------------------------------------------------------------


def cmd_dilute_coeffs(cfg: dict) -> int:
    J = _field(cfg, "J", 0.8, float)
    window = _box_from_config(cfg.get("window", cfg.get("box", "2x2x2")))
    sites = tuple(window.sites())
    if len(sites) > 12:
        raise ConfigError(f"window of {len(sites)} sites is too large for subset sweep")
    prune = _field(cfg, "prune", 1e-13, float)
    log2 = math.log(2.0)
    # one butterfly over the window gives every subset's dilute_vacuum_coeff
    coeffs = mobius_potential(
        window, lambda A: ising_free_log_partition(A.sites, J) - len(A) * log2
    )
    table = PotentialTable(window, alpha="vacuum:0", meta={"J": J})
    for A, entry in coeffs.items():
        if abs(entry.v) > prune:
            table.set(A.sites, entry)
    pair_val = math.log(math.cosh(J))
    summary = table_summary(table)
    summary["closed_forms"] = {
        "singleton": 0.0,
        "adjacent_pair_log_cosh_J": pair_val,
    }
    report = {"command": "dilute-coeffs", "J": J, "summary": summary}
    emit(cfg, "dilute-coeffs", {"table.json": table.to_json(), "summary.json": summary}, report)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointgibbs",
        description="Finite-lattice potentials for joint measures of disordered spin models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("check", cmd_check),
        ("potential", cmd_potential),
        ("converge", cmd_converge),
        ("correlations", cmd_correlations),
        ("dilute-coeffs", cmd_dilute_coeffs),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None)
        p.add_argument("--seed", metavar="N", type=int, default=None)
        p.add_argument("--box", metavar="dxWxH", default=None)
        p.add_argument("--out", metavar="DIR", default=None)
        p.add_argument("--samples", metavar="N", type=int, default=None)
        p.add_argument("--tol", metavar="X", type=float, default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = resolve(load_config(args.config), args)
        return args.fn(cfg)
    except (ConfigError, JointGibbsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
