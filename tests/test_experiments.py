import math

import numpy as np
import pytest

from fdarray.experiments import (
    ApertureRule,
    build_family_layout,
    fig2_study,
    scaling_sweep,
)
from fdarray.files import write_fig2_bundle, write_sweep_csv
from fdarray.geometry import FAMILIES, validate
from fdarray.si_model import si_matrix
from fdarray.spectral import spectral_norm


def test_aperture_rule_defaults_and_cap():
    lin = ApertureRule(kind="linear")
    assert lin.coeff == 2.0 and lin.target(50) == 100.0
    quad = ApertureRule(kind="quadratic")
    assert quad.coeff == 0.26 and quad.target(10) == 26.0
    capped = ApertureRule(kind="quadratic", l_max=200.0)
    assert capped.target(100) == 200.0
    with pytest.raises(ValueError):
        ApertureRule(kind="cubic")
    with pytest.raises(ValueError):
        ApertureRule(kind="linear", coeff=-1.0)


def test_build_family_layout_hits_target_when_feasible():
    for family in ("partitioned", "interleaved", "nested"):
        layout, params, feasible = build_family_layout(family, 11, 44.0)
        assert feasible
        assert validate(layout).ok
        # quantization bound: one solver step of the family's aperture identity
        step = {"partitioned": 1, "interleaved": 21, "nested": 11}[family]
        assert abs(int(layout.joint_aperture) - 44.0) <= step
        assert dict(params)
    with pytest.raises(ValueError):
        build_family_layout("ring", 4, 10.0)


def test_aperture_rule_rejects_non_finite_inputs():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="coeff must be finite"):
            ApertureRule(kind="linear", coeff=bad)
        with pytest.raises(ValueError, match="l_max must be finite"):
            ApertureRule(kind="quadratic", l_max=bad)


def test_aperture_rule_rejects_bools():
    # True would read as a coefficient of 1 and False as an aperture cap of 0
    for name in ("coeff", "l_max"):
        for flag in (True, False, np.True_):
            with pytest.raises(ValueError, match=f"^aperture rule {name} must be a number, not a bool, got "):
                ApertureRule(kind="linear", **{name: flag})


def test_build_family_layout_rejects_non_finite_target():
    for family in FAMILIES:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="target aperture must be finite"):
                build_family_layout(family, 11, bad)


def test_build_family_layout_flags_clamped_rows():
    layout, params, feasible = build_family_layout("partitioned", 10, 5.0)
    assert not feasible
    assert dict(params)["delta1"] == 0
    assert int(layout.joint_aperture) == 19


def test_fig2_study_reference_setup():
    study = fig2_study(rho=0.2, grid_size=1024)
    assert set(study.layouts) == {"partitioned", "interleaved", "nested"}
    assert int(study.layouts["partitioned"].joint_aperture) == 44
    assert int(study.layouts["interleaved"].joint_aperture) == 42
    assert int(study.layouts["nested"].joint_aperture) == 43
    for fam, spec in study.spectra.items():
        assert len(spec.sigmas) == 11
    # leading values comparable across families (same order of magnitude)
    tops = [spec.sigmas[0] for spec in study.spectra.values()]
    assert max(tops) / min(tops) < 10

    # nested sits between the two uniform families in the spectrum tail
    part = study.spectra["partitioned"].sigmas
    inter = study.spectra["interleaved"].sigmas
    nest = study.spectra["nested"].sigmas
    for k in range(5, 11):
        assert part[k] < nest[k] < inter[k]
    # interleaved decays slowest relative to its own peak
    for k in range(1, 11):
        assert inter[k] / inter[0] >= nest[k] / nest[0]
        assert inter[k] / inter[0] >= part[k] / part[0]


def test_sweep_rows_match_standalone_pipeline():
    rule = ApertureRule(kind="quadratic")
    result = scaling_sweep("nested", [10, 30, 20], rule, rho=0.5)
    assert [row.n for row in result.rows] == [10, 20, 30]
    for row in result.rows:
        layout, params, feasible = build_family_layout("nested", row.n, rule.target(row.n))
        assert row.params == params
        assert row.feasible == feasible
        assert row.spectral_norm == spectral_norm(si_matrix(layout, 0.5))
        assert validate(layout).ok


def test_sweep_single_point_consistency():
    rule = ApertureRule(kind="linear", coeff=3.0)
    result = scaling_sweep("partitioned", [2], rule)
    layout, _, _ = build_family_layout("partitioned", 2, rule.target(2))
    assert result.rows[0].spectral_norm == spectral_norm(si_matrix(layout, 1.0))


def test_sweep_flags_infeasible_rows():
    # a sub-linear target is unreachable for large partitioned arrays
    rule = ApertureRule(kind="linear", coeff=0.5)
    result = scaling_sweep("partitioned", [4, 40], rule)
    assert [row.feasible for row in result.rows] == [False, False]
    assert len(result.rows) == 2  # flagged, not dropped


def test_sweep_input_validation():
    rule = ApertureRule(kind="linear")
    with pytest.raises(ValueError):
        scaling_sweep("blob", [2, 4], rule)
    with pytest.raises(ValueError):
        scaling_sweep("nested", [], rule)
    with pytest.raises(ValueError):
        scaling_sweep("nested", [4, 4], rule)


def test_sweep_rejects_non_integer_counts():
    rule = ApertureRule(kind="quadratic")
    for bad in ([10.7, 20], [20, True]):
        with pytest.raises(ValueError, match="n_values must be integers"):
            scaling_sweep("nested", bad, rule)
    # numpy integers are counts; rows still come out sorted by N
    assert [row.n for row in scaling_sweep("nested", np.array([20, 10]), rule).rows] == [10, 20]


def test_sweep_csv_deterministic(tmp_path):
    rule = ApertureRule(kind="quadratic")
    result = scaling_sweep("interleaved", range(10, 41, 10), rule)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(result, p1)
    write_sweep_csv(scaling_sweep("interleaved", range(10, 41, 10), rule), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "N,L,family,spectral_norm,params,feasible"
    assert lines[1].split(",")[0] == "10"
    assert lines[1].split(",")[2] == "interleaved"


def test_fig2_bundle_files(tmp_path):
    study = fig2_study(rho=0.2, grid_size=256)
    written = write_fig2_bundle(study, tmp_path / "bundle")
    assert len(written) == 9
    for path in written:
        assert (tmp_path / "bundle").exists()
        with open(path) as fh:
            assert fh.read(1)

    # byte-determinism of a full bundle re-run
    again = write_fig2_bundle(fig2_study(rho=0.2, grid_size=256), tmp_path / "bundle2")
    for a, b in zip(written, again):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
