"""Tests of the benchmark itself: seeded inputs, oracles, span accounting.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fdarray as fd  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def build(name, seed, tmp_path):
    d = tmp_path / f"{name}-{seed}"
    d.mkdir(parents=True)
    return workloads.WORKLOADS[name](seed, str(d))


def work_shape(op):
    """The properties of an op that set its amount of work."""
    a = op.args
    if op.kind == "sweep" and "family" in a:
        return (a["family"], a["rule"], a["n"])
    if op.kind == "coarray" and "family" in a:
        return (a["family"], a["n"])
    if op.kind == "analyze":
        return (a["family"], a["n"], a["scale"], len(a["layout"].tx), len(a["layout"].rx))
    # cli commands: the argv minus the seed-drawn --rho / --theta-s values
    argv = a["argv"]
    return tuple(x for i, x in enumerate(argv) if i == 0 or argv[i - 1] not in ("--rho", "--theta-s"))


def drawn(op):
    return {k: v for k, v in op.args.items() if k in ("rho", "offset", "theta_s", "argv")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a, b = build(name, 7, tmp_path), build(name, 7, tmp_path / "b")
    assert [op.key for op in a.ops] == [op.key for op in b.ops]
    for x, y in zip(a.ops, b.ops):
        ax, ay = drawn(x), drawn(y)
        if "argv" in ax:  # work files live in each workload's own directory
            ax["argv"] = [s.replace(a.workdir, "") for s in ax["argv"]]
            ay["argv"] = [s.replace(b.workdir, "") for s in ay["argv"]]
        assert ax == ay
        if "layout" in x.args:
            assert x.args["layout"] == y.args["layout"]
    assert [op.key for op in a.order()] == [op.key for op in b.order()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seed_same_work(name, tmp_path):
    a, b = build(name, 1, tmp_path), build(name, 2, tmp_path)
    work = lambda wl: sorted((op.key, tuple(str(x).replace(wl.workdir, "") for x in work_shape(op))) for op in wl.ops)
    assert work(a) == work(b)
    assert len(a.ops) == {"sweep": 120, "coarray": 60, "analyze": 12, "cli": 33}[name]
    assert sorted(op.key for op in a.order()) == sorted(op.key for op in b.order())
    assert [drawn(op) for op in a.ops] != [drawn(op) for op in b.ops]


# --- oracles against fdarray on small cases -----------------------------------


SMALL = [
    ("partitioned", {"n": 5, "delta1": 2}),
    ("interleaved", {"n": 4, "delta2": 3}),
    ("nested", {"m1": 3, "m2": 3, "delta3": 2}),
]


def small_layout(family, params, offset=0, scale=1):
    layout = workloads.generate(family, params)
    if scale != 1:
        layout = fd.FullDuplexLayout(tx=layout.tx.scaled(scale), rx=layout.rx.scaled(scale))
    return workloads.translate(layout, offset)


@pytest.mark.parametrize("family,params", SMALL)
@pytest.mark.parametrize("offset,scale", [(0, 1), (999_983, 1), (5, Fraction(1, 3))])
def test_layout_channel_structure_oracles(family, params, offset, scale):
    layout = small_layout(family, params, offset, scale)
    tx, rx = checks.family_positions(family, params, offset=offset, scale=scale)
    assert checks.check_positions("tx", layout.tx.positions, tx) == []
    assert checks.check_positions("rx", layout.rx.positions, rx) == []
    assert checks.check_positions("rx", layout.rx.positions, [p + 1 for p in rx]) != []

    h = fd.si_matrix(layout, 0.4)
    want, d, denom = checks.channel(tx, rx, 0.4)
    assert np.max(np.abs(h.h - want)) <= checks.RTOL * np.max(np.abs(want))
    assert fd.sign_pattern(h) == checks.expected_sign_pattern(d, denom)
    assert fd.is_toeplitz(fd.distance_matrix(layout)) == checks.expected_toeplitz(d)
    assert fd.is_toeplitz(h) == checks.expected_toeplitz(d)

    spec = fd.svd_spectrum(h)
    s_ref = checks.sigmas(want)
    assert checks.check_spectrum("s", spec.sigmas, s_ref) == []
    assert checks.check_spectrum("s", spec.sigmas * (1 + 1e-8), s_ref) != []
    assert checks.close(float(np.sum(spec.sigmas**2)), float(np.sum(np.abs(want) ** 2)), spec.frob**2)

    co = fd.sum_coarray(layout)
    want_co = checks.coarray(tx, rx)
    assert checks.check_coarray("c", co.sums, co.multiplicities, co.contiguous_len, want_co) == []
    bumped = list(co.multiplicities)
    bumped[0] += 1
    assert checks.check_coarray("c", co.sums, bumped, co.contiguous_len, want_co) != []
    if co.contiguous_len is not None:
        assert checks.check_coarray("c", co.sums, co.multiplicities, co.contiguous_len + 1, want_co) != []


def test_structure_oracles_catch_wrong_answers():
    d = np.array([[1, 2], [2, 1]])
    assert checks.expected_toeplitz(d) is True
    assert checks.expected_toeplitz(np.array([[1, 2], [3, 4]])) is False
    assert checks.expected_sign_pattern(np.array([[2, 4]]), 1) == "uniform"
    assert checks.expected_sign_pattern(np.array([[1, 2]]), 1) == "alternating"
    assert checks.expected_sign_pattern(np.array([[1, 2]]), 3) == "complex"


@pytest.mark.parametrize("family,params", SMALL)
def test_sweep_row_oracle(family, params):
    n = params.get("n", 6)
    result = fd.scaling_sweep(family, [n], fd.ApertureRule(kind="linear"), 0.3)
    row = result.rows[0]
    cache = {}
    args = (family, n, 0.3, dict(row.params), row.l_actual)
    assert checks.check_sweep_row("r", *args, row.spectral_norm, cache) == []
    assert checks.check_sweep_row("r", *args, row.spectral_norm * (1 + 1e-8), cache) != []
    assert checks.check_sweep_row("r", family, n, 0.3, dict(row.params), row.l_actual + 1, row.spectral_norm, cache) != []


@pytest.mark.parametrize("theta_s", [-0.9, -0.2, 0.35, 1.0])
def test_beampattern_and_lobe_oracles(theta_s):
    layout = small_layout("interleaved", {"n": 12, "delta2": 1}, offset=123_457)
    curve = fd.beampattern(layout.rx, theta_s, 2048)
    rx = list(layout.rx.positions)
    assert checks.check_curve("b", rx, curve.thetas, curve.gains_db, theta_s) == []
    assert checks.check_curve("b", rx, curve.thetas, curve.gains_db + 0.1, theta_s) != []

    width = fd.main_lobe_width(curve)
    lobes = fd.grating_lobes(curve, workloads.GRATING_TOL_DB)
    expected = checks.uniform_grating_count(2, theta_s)
    assert expected is None or len(lobes) == expected
    args = (curve.thetas, curve.gains_db, theta_s, width.width, width.left, width.right, width.method)
    assert checks.check_lobes("l", *args, lobes, 0.5, expected) == []
    assert checks.check_lobes("l", *args, lobes + [theta_s], 0.5, None) != []
    if expected:
        assert checks.check_lobes("l", *args, lobes[1:], 0.5, expected) != []


def test_file_parsers_round_trip(tmp_path):
    layout = small_layout("nested", {"m1": 3, "m2": 2, "delta3": 1}, scale=Fraction(1, 2))
    h = fd.si_matrix(workloads.translate(layout, Fraction(1, 3)), 0.7)
    fd.write_matrix_csv(h, tmp_path / "m.csv")
    got, has_imag = checks.parse_matrix_csv((tmp_path / "m.csv").read_text())
    assert has_imag and np.array_equal(got, h.h)
    fd.write_matrix_json(h, tmp_path / "m.json")
    assert np.array_equal(checks.parse_matrix_json((tmp_path / "m.json").read_text()), h.h)
    assert checks.parse_cell("1e-05-2.5E+03i") == complex(1e-05, -2.5e03)
    with pytest.raises(ValueError):
        checks.parse_table("x,y\n1,2\n", "theta,B")


# --- workload-level checks on real ops, and perturbed outputs ----------------


def first(wl, key):
    return next(op for op in wl.ops if op.key == key)


def test_sweep_and_coarray_ops_checked(tmp_path):
    sweep = build("sweep", 3, tmp_path)
    op = first(sweep, "nested/quadratic/N=10")
    result = sweep.run(op)
    assert sweep.check(op, result) == []
    assert sweep.replay_summary(op, sweep.replay(op, tracing.Tracer())) == sweep.summary(op, result)
    row = result.rows[0]
    bad = fd.SweepResult(result.family, result.rule, result.rho, (
        fd.SweepRow(row.n, row.family, row.l_target, row.l_actual, row.spectral_norm * 1.001, row.params, row.feasible),
    ))
    assert sweep.check(op, bad) != []

    co = build("coarray", 3, tmp_path)
    op = first(co, "nested/N=20")
    params, moved, result = co.run(op)
    assert co.check(op, (params, moved, result)) == []
    bad = fd.SumCoarray(result.sums, result.multiplicities, result.contiguous_len - 1)
    assert co.check(op, (params, moved, bad)) != []


def test_collapsed_row_is_counted(tmp_path):
    co = build("coarray", 3, tmp_path)
    for key in ("nested/N=180", "nested/N=190"):
        op = first(co, key)
        assert co.check(op, co.run(op)) == []
    assert co.counters() == {"coarray.collapsed_rows": 1}


def test_analyze_op_checked(tmp_path):
    wl = build("analyze", 4, tmp_path)
    op = first(wl, "nested_thirds/N=100")
    r = wl.run(op)
    assert wl.check(op, r) == []
    assert wl.summary(op, wl.replay(op, tracing.Tracer())) == wl.summary(op, r)
    for key, change in (("sign", "uniform"), ("toe_h", True), ("rank", r["rank"] + 3)):
        assert wl.check(op, {**r, key: change}) != []
    assert wl.check(op, {**r, "sigmas": r["sigmas"] * (1 + 1e-7)}) != []


def test_cli_ops_checked_and_perturbation_caught(tmp_path):
    wl = build("cli", 5, tmp_path)
    block = [op for op in wl.ops if op.key.startswith("L2/")]
    for op in block:
        result = wl.run(op)
        assert wl.check(op, result) == [], op.key
        assert wl.replay_summary(op, wl.replay(op, tracing.Tracer())) == wl.untraced_summary(op, result)
    op = first(wl, "L2/si_csv")
    path = Path(op.args["outputs"][0])
    text = path.read_text()
    first_cell = text.split(",", 1)[0]
    path.write_text(text.replace(first_cell, repr(float(first_cell) * 1.001), 1))
    assert wl.check(op, (0, "")) != []
    assert wl.check(op, (2, "")) != []

    rational = [op for op in wl.ops if op.key.startswith("L3/")]
    for op in rational:
        assert wl.check(op, wl.run(op)) == [], op.key
    assert wl.counters() == {"io.inexact_roundtrips": 1}


# --- span accounting -----------------------------------------------------------


def span(name, start, end, parent, op="a", probe=False, **attrs):
    return {"name": name, "start": start * 10**6, "end": end * 10**6, "parent": parent, "op": op, "probe": probe, **attrs}


def test_layer_metrics_accounting():
    spans = [
        span("op", 0, 100, None),
        span("geometry.build_family_layout", 0, 10, 0, positions=20),
        span("si_model.distance_matrix", 10, 40, 0, probe=True, entries=100),
        span("si_model.si_matrix", 40, 90, 0, entries=100),
        span("spectral.spectral_norm", 90, 95, 0, entries=100),
    ]
    m = tracing.layer_metrics(spans, {"a": 80.0}, True)
    assert m["si_model.si_matrix.self_ms"][0] == pytest.approx(20.0)
    assert m["si_model.distance_matrix.self_ms"][0] == pytest.approx(30.0)
    assert m["si_model.self_ms"][0] == pytest.approx(50.0)
    assert m["experiments.self_ms"][0] == pytest.approx(80.0 - 65.0)
    assert m["si_model.ns_per_entry"][0] == pytest.approx(20.0 * 1e6 / 100)
    assert m["geometry.us_per_position"][0] == pytest.approx(10.0 * 1e3 / 20)
    assert m["trace.overhead_ratio"][0] == pytest.approx((100 - 30) / 80)
    assert m["cli.dispatch.self_ms"][0] == 0.0
    spans.append(span("cli.dispatch", 95, 97, 0))
    m = tracing.layer_metrics(spans, {"a": 80.0}, False)
    assert m["cli.dispatch.self_ms"][0] == pytest.approx(2.0)
    assert m["experiments.self_ms"][0] == 0.0


def test_host_speed_factors_scale_slow_phase_ops():
    host = run.HostSpeed()
    host.probe()
    assert len(host.ref_ms) == 1 and host.ref_ms[0] > 0
    host.ref_ms = [1.0] * 10
    assert np.allclose(host.factors(), 1.0)
    # The last two readings are 2 ms: the op between a 1 ms and a 2 ms
    # reading scales by 1/1.5, the op after it by 1/2.
    host.ref_ms = [1.0] * 10 + [2.0, 2.0]
    f = host.factors()
    assert len(f) == 11
    assert np.allclose(f[:9], 1.0) and f[9] == pytest.approx(1 / 1.5) and f[10] == pytest.approx(0.5)


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmark"]
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    layer = set(tracing.layer_metrics([], {"x": 1.0}, False)) | set(run.PER_LAYER_EXTRA)
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isfinite(spec["run_seconds"])
