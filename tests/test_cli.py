import json
import math
from itertools import combinations, product

import numpy as np
import pytest

from jointgibbs.cli import main, parse_box, prune_table, table_summary
from jointgibbs.disorder import CBAR_NOISE_FLOOR
from jointgibbs.errors import ConfigError
from jointgibbs.lattice import Box, SiteSet
from jointgibbs.model import make_rfim
from jointgibbs.potentials import (
    ConstantEntry,
    NormalizingMeasure,
    PotentialTable,
    dilute_vacuum_coeff,
    relative_energy_table,
)
from jointgibbs.qkernel import QKernelContext


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def report_from(capsys):
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def test_parse_box():
    assert parse_box("2x3x3") == Box.from_shape(3, 3)
    assert parse_box("1x8") == Box.from_shape(8)
    for bad in ("3x3", "2x3", "axb", "12"):
        with pytest.raises(ConfigError):
            parse_box(bad)


def test_config_parse_error_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"box": "1x4",')
    assert main(["check", "--config", str(path)]) == 2
    assert "parse error at line" in capsys.readouterr().err


def test_unsupported_config_version(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", {"version": 99})
    assert main(["check", "--config", str(path)]) == 2
    assert "version" in capsys.readouterr().err


def test_monte_carlo_commands_demand_a_seed(capsys):
    assert main(["correlations", "--box", "1x6"]) == 2
    assert "seed" in capsys.readouterr().err
    assert main(["converge"]) == 2


def test_bad_box_extents_are_usage_errors(tmp_path, capsys):
    assert main(["potential", "--box", "1x0"]) == 2
    assert "extents must be positive" in capsys.readouterr().err
    cfg = write_config(tmp_path, "cfg.json", {"box": [3, 0]})
    assert main(["potential", "--config", cfg]) == 2
    assert "extents must be positive" in capsys.readouterr().err


def test_separations_must_fit_the_box(tmp_path, capsys):
    # the default m_values reach 4, which does not fit a 4-site chain
    assert main(["correlations", "--box", "1x4", "--seed", "1"]) == 2
    assert "m_values" in capsys.readouterr().err
    cfg = write_config(tmp_path, "cfg.json", {"box": "1x6", "m_values": [0, 1]})
    assert main(["correlations", "--config", cfg, "--seed", "1"]) == 2
    assert "m_values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["potential", "check"])
def test_window_outside_the_box_is_a_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "cfg.json", {"box": "1x3", "window": "1x5"})
    assert main([command, "--config", cfg]) == 2
    assert "not inside the box" in capsys.readouterr().err


def test_bad_numeric_field_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"box": "1x3", "prune": "some"})
    assert main(["potential", "--config", cfg]) == 2
    assert "'prune'" in capsys.readouterr().err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    import jointgibbs.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "cbar", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["correlations", "--box", "1x6", "--seed", "1", "--samples", "20"])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_passes_on_a_small_box(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["check", "--box", "2x2x2", "--seed", "0", "--tol", "1e-9",
         "--out", str(out)]
    )
    assert code == 0
    report = report_from(capsys)
    assert report["pass"] is True
    names = {s["name"] for s in report["sections"]}
    assert {"transform_roundtrip", "alpha_normalization", "martingale",
            "partial_sum", "reconstruction"} <= names
    assert any(n.startswith("ratio_") for n in names)
    assert all(s["pass"] for s in report["sections"])
    assert (out / "report.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert manifest["config"]["box"] == "2x2x2"
    assert "out" not in manifest["config"]


def test_check_passes_with_a_zero_weight_alphabet_value(tmp_path, capsys):
    # the reconstruction section conditions on a window whose patches include
    # the uncharged value; they get probability 0, not a usage error
    cfg = {"model": {"model": "rfim", "J": 0.3, "h": 0.5,
                     "nu": {"-1": 0.25, "0": 0.0, "1": 0.75}},
           "box": "2x2x2", "trials": 10, "seed": 7}
    path = write_config(tmp_path, "zero.json", cfg)
    assert main(["check", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    report = report_from(capsys)
    assert report["pass"] is True
    assert "reconstruction" in {s["name"] for s in report["sections"]}


def test_manifest_records_the_log_z_counts(tmp_path, capsys):
    def counts(argv, name):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["logz"]

    # the potential table reads single codes: every miss is swept on its own
    table = counts(["potential", "--box", "1x4"], "potential")
    assert table["swept"] == 2**4 and table["batched"] == table["batches"] == 0
    assert table["requests"] > table["swept"]
    # flip covariances read arrays of codes: their misses are batched
    cfg = write_config(tmp_path, "cfg.json", {"box": "1x6", "m_values": [1, 2], "samples": 40})
    corr = counts(["correlations", "--config", cfg, "--seed", "2"], "correlations")
    assert corr["swept"] == 0 < corr["batched"] <= 2**6
    assert corr["batches"] == 2 and corr["requests"] == 2 * 4 * 40
    # converge sums over its boxes; check over its two contexts
    cfg = write_config(tmp_path, "conv.json", {"boxes": ["1x3", "1x4"], "radii": [1], "samples": 20})
    conv = counts(["converge", "--config", cfg, "--seed", "4"], "converge")
    assert conv["batched"] == 2**3 + 2**4
    check = counts(["check", "--box", "1x3", "--seed", "0"], "check")
    assert check["requests"] >= check["swept"] > 0
    capsys.readouterr()


def test_check_with_fixed_boundary(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"box": "1x3", "bc": {"kind": "fixed", "fill": 1}, "trials": 20},
    )
    assert main(["check", "--config", cfg, "--seed", "1"]) == 0
    assert report_from(capsys)["boundary"] == "fixed"


def test_check_passes_trivially_without_disorder_coupling(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "rfim", "J": 0.0, "h": 0.0}, "box": "1x3",
         "trials": 10},
    )
    assert main(["check", "--config", cfg, "--seed", "2"]) == 0
    report = report_from(capsys)
    assert all(s["max_abs_violation"] <= 1e-12 for s in report["sections"])


def test_check_flags_a_corrupted_table(tmp_path, capsys):
    ctx = QKernelContext(make_rfim(J=0.3, h=0.5), Box.from_shape(4))
    table = relative_energy_table(ctx, NormalizingMeasure.product(ctx.spec.nu))
    table.set([(1,)], ConstantEntry(0.321))  # deliberately wrong
    table_path = tmp_path / "table.json"
    with open(table_path, "w") as fp:
        table.dump(fp)
    cfg = write_config(
        tmp_path, "cfg.json",
        {"box": "1x4", "potential": str(table_path), "trials": 30},
    )
    assert main(["check", "--config", cfg, "--seed", "3"]) == 1
    report = report_from(capsys)
    assert report["pass"] is False
    bad = [s for s in report["sections"] if not s["pass"]]
    assert bad
    assert any("witness" in s for s in bad)


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------


def test_potential_writes_table_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["potential", "--box", "1x4", "--out", str(out)])
    assert code == 0
    with open(out / "table.json") as fp:
        table = PotentialTable.load(fp)
    # the pairs and the full set are nonzero in exact arithmetic; singletons
    # and triples vanish by the eta -> -eta, sigma -> -sigma symmetry and
    # survive the 0.0 prune only as rounding
    sites = Box.from_shape(4).sites()
    for A in list(combinations(sites, 2)) + [tuple(sites)]:
        entry = table.entry(list(A))
        assert entry is not None, A
        assert float(np.abs(entry.values).max()) > 1e-6, A
    for A, entry in table.items():
        if len(A) in (1, 3):
            assert float(np.abs(entry.values).max()) <= 1e-12, A.sites
    summary = json.loads((out / "summary.json").read_text())
    assert summary["entries"] == len(table)
    assert report_from(capsys)["summary"]["entries"] == len(table)


def test_potential_refuses_a_large_box_before_reading_log_z(capsys):
    assert main(["potential", "--box", "1x24"]) == 2
    assert "table refused" in capsys.readouterr().err


def test_potential_prunes_a_flat_model(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "rfim", "J": 0.0, "h": 0.0}, "box": "1x3"},
    )
    assert main(["potential", "--config", cfg]) == 0
    assert report_from(capsys)["summary"]["entries"] == 0


def test_potential_centering_removes_the_law_mean(tmp_path):
    out = tmp_path / "run"
    law = {-1: 0.3, 1: 0.7}
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "rfim", "J": 0.4, "h": 0.3, "nu": law},
         "box": "1x3", "alpha": {"kind": "vacuum", "fill": 1}, "center": True},
    )
    assert main(["potential", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "table.json") as fp:
        table = PotentialTable.load(fp)
    assert len(table) > 0
    for A, entry in table.items():
        mean = 0.0
        for combo in product(law, repeat=len(A)):
            eta = dict(zip(A.sites, combo))
            mean += math.prod(law[v] for v in combo) * entry.value(A.sites, eta)
        assert abs(mean) <= 1e-12


def test_prune_and_summary_helpers():
    table = PotentialTable(Box.from_shape(3), alpha="product")
    table.set([(0,)], ConstantEntry(0.0))
    table.set([(1,)], ConstantEntry(0.5))
    table.set([(0,), (2,)], ConstantEntry(-0.25))
    kept = prune_table(table)
    assert len(kept) == 2
    summary = table_summary(kept)
    assert summary["entries"] == 2
    assert summary["by_diameter"]["0"]["count"] == 1
    assert summary["by_diameter"]["2"]["max_abs"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_requires_growing_boxes(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", {"boxes": ["1x4", "1x4"], "seed": 1}
    )
    assert main(["converge", "--config", cfg]) == 2
    assert "strictly increasing" in capsys.readouterr().err


def test_converge_small_run(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, "cfg.json",
        {"boxes": ["1x3", "1x4"], "radii": [1, 2], "samples": 60},
    )
    assert main(["converge", "--config", cfg, "--seed", "4", "--out", str(out)]) == 0
    lines = (out / "converge.csv").read_text().strip().splitlines()
    assert lines[0] == "box,site,r,epsilon,stderr,samples,partial_sum"
    assert len(lines) == 1 + 2 * 2
    assert all(row.split(",")[0] in ("3", "4") for row in lines[1:])
    trend = json.loads((out / "trend.json").read_text())
    assert [t["box"] for t in trend] == ["3", "4"]
    assert all("non_increasing_within_2se" in t for t in trend)
    report = report_from(capsys)
    assert report["trend"] == trend


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------


def test_correlations_flat_for_decoupled_model(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "rfim", "J": 0.0, "h": 0.5}, "box": "1x6",
         "m_values": [1, 2], "samples": 40},
    )
    assert main(["correlations", "--config", cfg, "--seed", "5",
                 "--out", str(out)]) == 0
    report = report_from(capsys)
    assert all(v["value"] < 1e-12 for v in report["cbar"].values())
    assert report["fit"]["slope"] is None
    assert report["fit"]["halfwidth95"] is None
    assert report["fit"]["status"] == "no signal"
    assert report["fit"]["noise_floor"] == CBAR_NOISE_FLOOR
    assert report["fit"]["m_fitted"] == []
    assert report["decay_budget"]["value"] >= report["decay_budget"]["c1"]
    lines = (out / "correlations.csv").read_text().strip().splitlines()
    assert lines[0] == "m,cbar,stderr,samples,eta_x,eta_y"
    assert len(lines) == 1 + 2 * 4  # four flip pairs per separation


def test_correlations_no_slope_from_rounding_noise(tmp_path, capsys):
    # a free bond-disorder chain has cbar = 0 in exact arithmetic; whatever
    # rounding leaves must stay under the floor and produce no fit
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "random_bond", "couplings": [0.1, 0.9], "d": 1},
         "box": "1x8", "m_values": [1, 2, 3], "samples": 40},
    )
    assert main(["correlations", "--config", cfg, "--seed", "2"]) == 0
    report = report_from(capsys)
    assert all(v["value"] <= CBAR_NOISE_FLOOR for v in report["cbar"].values())
    assert report["fit"]["slope"] is None
    assert report["fit"]["status"] == "no signal"


def test_correlations_fit_on_bond_disorder_ladder(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json",
        {"model": {"model": "random_bond", "couplings": [[0.1, 0.9], [0.5]], "d": 2},
         "box": "2x6x2", "m_values": [1, 2, 3, 4], "samples": 80},
    )
    assert main(["correlations", "--config", cfg, "--seed", "3"]) == 0
    fit = report_from(capsys)["fit"]
    assert fit["status"] == "fitted"
    assert fit["m_fitted"] == [1, 2, 3, 4]
    assert fit["slope"] < 0


# ---------------------------------------------------------------------------
# dilute-coeffs
# ---------------------------------------------------------------------------


def test_dilute_coeffs_closed_forms(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "cfg.json", {"J": 0.8, "window": "2x2x2"})
    assert main(["dilute-coeffs", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "table.json") as fp:
        table = PotentialTable.load(fp)
    pair_vals = [
        table.value(A) for A in table.support()
        if len(A) == 2 and A.diameter() == 1
    ]
    assert len(pair_vals) == 4
    assert all(v == pytest.approx(0.2907535603283936, abs=1e-12) for v in pair_vals)
    full = [A for A in table.support() if len(A) == 4]
    assert len(full) == 1
    assert table.value(full[0]) == pytest.approx(0.17767104750547213, abs=1e-12)
    assert len(table) == 5  # four bonds plus the plaquette survive pruning
    report = report_from(capsys)
    closed = report["summary"]["closed_forms"]
    assert closed["adjacent_pair_log_cosh_J"] == pytest.approx(math.log(math.cosh(0.8)))


def test_dilute_coeffs_match_the_per_subset_sum(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, "cfg.json", {"J": 0.7, "window": "2x2x3"})
    assert main(["dilute-coeffs", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "table.json") as fp:
        table = PotentialTable.load(fp)
    sites = list(Box.from_shape(2, 3).sites())
    want = {}
    for n in range(1, len(sites) + 1):
        for A in combinations(sites, n):
            v = dilute_vacuum_coeff(0.7, A)
            if abs(v) > 1e-13:
                want[SiteSet(A).sites] = v
    assert {A.sites for A in table.support()} == set(want)
    for key, v in want.items():
        assert table.value(key) == pytest.approx(v, abs=1e-12)


def test_dilute_coeffs_window_cap(capsys):
    assert main(["dilute-coeffs", "--box", "2x4x4"]) == 2
    assert "too large" in capsys.readouterr().err