import math
import random
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import longdouble_array_factor
from test_properties import rational_layouts

from fdarray.beampattern import (
    DB_FLOOR,
    _HALF_POWER_DB,
    BeampatternCurve,
    MainLobeWidth,
    _local_peak_index,
    _refine_parabolic,
    _runs,
    array_factor,
    beampattern,
    grating_lobes,
    main_lobe_width,
)
from fdarray.experiments import ApertureRule, build_family_layout
from fdarray.files import load_layout, save_layout, write_curve_csv
from fdarray.geometry import (
    FAMILIES,
    ArrayGeometry,
    FullDuplexLayout,
    generate_interleaved,
    generate_nested,
    position_ticks,
)


def ula(n, spacing=1):
    return ArrayGeometry(tuple(spacing * i for i in range(n)))


def test_array_factor_single_element():
    g = ArrayGeometry((0,))
    for theta in (-1.2, 0.0, 0.7):
        assert array_factor(g, theta) == 1.0 + 0j


def test_array_factor_coherent_sum_at_steering_angle():
    for n in (1, 5, 11):
        g = ula(n)
        for theta_s in (0.0, 0.4, -1.0):
            val = array_factor(g, theta_s, theta_s)
            assert abs(val - n) < 1e-12


def test_array_factor_at_a_subnormal_offset_is_the_element_count():
    # u = sin(0) - sin(5e-324) is subnormal: pi*u and m*pi*u round to a few
    # subnormal steps, and their ratio read 13/3 for m = 4
    for n, spacing in ((4, 2), (7, 1), (8, 3)):
        assert abs(array_factor(ula(n, spacing), 0.0, 5e-324)) == n


def test_array_factor_grating_condition():
    # spacing-2 array: a full sine offset of 1 realigns every element phase
    n = 8
    g = ula(n, spacing=2)
    val = array_factor(g, 0.0, -np.pi / 2)  # sin(0) - sin(-pi/2) = 1
    assert abs(val - n) < 1e-9


def test_array_factor_range_checks():
    g = ula(3)
    with pytest.raises(ValueError):
        array_factor(g, 2.0)
    with pytest.raises(ValueError):
        array_factor(g, 0.0, theta_s=-2.0)


@pytest.mark.parametrize("theta", [math.nan, [0.1, math.nan]], ids=["nan", "list-with-nan"])
def test_array_factor_rejects_nan_angles(theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^theta must lie in \[-pi/2, pi/2\]$"):
            array_factor(ula(3), theta)


def test_array_factor_of_no_angles_is_empty():
    # one run, two runs and one-tick runs only
    nested = generate_nested(4, 4, 1)
    for g in (ula(5), nested.tx, nested.rx, ArrayGeometry((0, 1, 3, 7))):
        out = array_factor(g, np.array([]))
        assert out.shape == (0,) and out.dtype == complex


def test_beampattern_grid_and_normalization():
    g = ula(11)
    curve = beampattern(g, 0.0, grid_size=513, normalized=True)
    assert curve.thetas[0] == -np.pi / 2 and curve.thetas[-1] == np.pi / 2
    assert np.all(np.diff(curve.thetas) > 0)
    assert abs(curve.gains_db.max()) <= 1e-9

    raw = beampattern(g, 0.0, grid_size=513)
    assert abs(raw.gains_db.max() - 20 * math.log10(11)) < 1e-3
    assert raw.gains_db.min() >= DB_FLOOR

    single = beampattern(ArrayGeometry((0,)), 0.0, grid_size=33, normalized=True)
    assert np.all(single.gains_db == 0.0)

    with pytest.raises(ValueError):
        beampattern(g, 0.0, grid_size=2)


def test_pattern_symmetry_and_peak_bound():
    g = generate_nested(6, 5, 3).rx
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 101)
    mags = np.abs(array_factor(g, thetas, 0.0))
    assert np.allclose(mags, mags[::-1], rtol=0, atol=1e-9)
    assert np.all(mags <= len(g) + 1e-9)


def test_translation_invariance():
    g = ula(9)
    shifted = g.shifted(7)
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 101)
    a = np.abs(array_factor(g, thetas, 0.2))
    b = np.abs(array_factor(shifted, thetas, 0.2))
    assert np.allclose(a, b, rtol=1e-12, atol=1e-9)


def test_ula_periodicity_in_sine_space():
    spacing = 4
    g = ula(6, spacing=spacing)
    period = 2.0 / spacing
    for u in (0.05, 0.2, 0.31):
        a = abs(array_factor(g, math.asin(u), 0.0))
        b = abs(array_factor(g, math.asin(u - period), 0.0))
        assert abs(a - b) < 1e-9


def test_main_lobe_width_ula_reference():
    curve = beampattern(ula(16), 0.0)
    measured = main_lobe_width(curve)
    assert measured.method == "null_to_null"
    expected = 2 * math.asin(2 / 16)
    assert abs(measured.width - expected) < 2 * curve.grid_step


def test_main_lobe_width_halves_when_aperture_doubles():
    narrow = main_lobe_width(beampattern(ula(16), 0.0))
    wide = main_lobe_width(beampattern(ula(16, spacing=2), 0.0))
    step = beampattern(ula(16), 0.0).grid_step
    assert abs(wide.width - narrow.width / 2) < 2 * step


def test_main_lobe_width_steered():
    theta_s = 0.5
    curve = beampattern(ula(16), theta_s)
    measured = main_lobe_width(curve)
    assert measured.left < theta_s < measured.right
    # steered lobes widen as cos(theta_s) shrinks
    assert measured.width > main_lobe_width(beampattern(ula(16), 0.0)).width


def test_main_lobe_width_sparse_fallback_is_flagged():
    curve = beampattern(generate_nested(6, 5, 3).rx, 0.0)
    measured = main_lobe_width(curve)
    assert measured.method == "half_power"
    assert 0 < measured.width < 0.1


def test_main_lobe_width_degenerate():
    curve = beampattern(ArrayGeometry((0,)), 0.0, grid_size=33)
    with pytest.raises(ValueError):
        main_lobe_width(curve)


def test_grating_lobes_interleaved_spacing():
    curve = beampattern(generate_interleaved(11, 2).rx, 0.0)
    lobes = grating_lobes(curve, tol_db=0.5)
    target = math.asin(0.5)
    assert any(abs(angle - target) <= curve.grid_step for angle in lobes)
    assert any(abs(angle + target) <= curve.grid_step for angle in lobes)


@pytest.mark.parametrize("tol_db", [float("nan"), -1.0])
def test_grating_lobes_rejects_a_tolerance_below_zero_or_nan(tol_db):
    curve = beampattern(generate_interleaved(8, 2).rx)
    assert len(grating_lobes(curve)) == 4
    with pytest.raises(ValueError):
        grating_lobes(curve, tol_db=tol_db)


def test_grating_lobes_absent_for_dense_and_nested():
    assert grating_lobes(beampattern(ula(11), 0.0), 0.5) == []
    assert grating_lobes(beampattern(generate_nested(6, 5, 3).rx, 0.0), 0.5) == []


def test_curve_csv(tmp_path):
    curve = beampattern(ula(4), 0.0, grid_size=64)
    path = tmp_path / "bp.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,B"
    assert len(lines) == 65
    theta, gain = (float(x) for x in lines[1].split(","))
    assert theta == curve.thetas[0] and gain == curve.gains_db[0]


# --- accuracy against the re-centred direct sum ------------------------------
#
# Every check below compares against `oracles.longdouble_array_factor`, the
# direct sum over the positions minus the first one (exact rational
# subtraction) taken in long double at the same float64 u, or against a lobe
# scan written here, never against the code under test. The float64 direct
# sum (`oracles.direct_array_factor`) is no such reference: it is off by up to
# 2.05e-11*N on the quadratic-rule cases at N = 1400, and by 0.32e-11*N on a
# 110-antenna progression union on which the run form is off by 0.68e-11*N,
# so the two differ by more than 1e-11*N although both are within it.

ACCURACY_THETAS = np.linspace(-np.pi / 2, np.pi / 2, 4096)


def assert_matches_recentred_sum(g, thetas, theta_s):
    got = np.abs(array_factor(g, thetas, theta_s))
    want = longdouble_array_factor(g.positions, thetas, theta_s)
    assert np.max(np.abs(got - want)) <= 1e-11 * len(g)


def analyze_style_geometries():
    """Rx sides of the benchmark's `analyze` layouts: linear rule, N = 100..300,
    translated by up to 1e6, the last family scaled by 1/3."""
    rng = random.Random(11)
    cases = []
    for fam in ("partitioned", "interleaved", "nested", "nested_thirds"):
        for n in (100, 200, 300):
            base = "nested" if fam == "nested_thirds" else fam
            g = build_family_layout(base, n, ApertureRule(kind="linear").target(n))[0].rx
            if fam == "nested_thirds":
                g = g.scaled(Fraction(1, 3))
            offset = rng.randint(0, 10**6)
            cases.append(pytest.param(g.shifted(offset), rng.uniform(-np.pi / 3, np.pi / 3), id=f"{fam}-{n}"))
    return cases


@pytest.mark.parametrize("g,theta_s", analyze_style_geometries())
def test_array_factor_matches_recentred_sum_on_analyze_layouts(g, theta_s):
    assert_matches_recentred_sum(g, ACCURACY_THETAS, theta_s)


@pytest.mark.parametrize("family", ["interleaved", "nested"])
@pytest.mark.parametrize("n", [60, 200, 300, 600, 1000, 1400])
def test_array_factor_matches_recentred_sum_under_quadratic_rule(family, n):
    # spans near N**2/4; each side is one uniform run (interleaved) or two
    # (nested), so it is summed as one or two Dirichlet kernels
    layout = build_family_layout(family, n, ApertureRule(kind="quadratic").target(n))[0]
    assert_matches_recentred_sum(layout.tx.shifted(987654), ACCURACY_THETAS, 0.3)


def test_array_factor_matches_recentred_sum_on_float_decimal_geometry(tmp_path):
    exact = generate_nested(40, 40, 1)
    exact = FullDuplexLayout(
        tx=exact.tx.scaled(Fraction(1, 2)).shifted(Fraction(1, 3) + 10**6),
        rx=exact.rx.scaled(Fraction(1, 2)).shifted(Fraction(1, 3)),
    )
    path = tmp_path / "thirds.json"
    save_layout(exact, path)
    lay = load_layout(path)
    # 16-digit decimals near 1 and 10-digit ones near 1e6
    assert math.lcm(*(p.denominator for p in lay.rx.positions)) == 10**16
    assert math.lcm(*(p.denominator for p in lay.tx.positions)) >= 10**9
    for g in (lay.tx, lay.rx):
        assert_matches_recentred_sum(g, ACCURACY_THETAS, -0.2)


@settings(max_examples=150, deadline=None)
@given(rational_layouts(), st.floats(-np.pi / 2, np.pi / 2))
def test_array_factor_matches_recentred_sum_on_rational_layouts(layout, theta_s):
    thetas = np.linspace(-np.pi / 2, np.pi / 2, 257)
    for g in (layout.tx, layout.rx):
        assert_matches_recentred_sum(g, thetas, theta_s)


@pytest.mark.parametrize("rule", ["linear", "quadratic"])
def test_beampattern_memory_is_bounded(rule):
    # the dense direct sum holds 16384 x 1000 complex exponentials, about 260 MB
    g = build_family_layout("nested", 1000, ApertureRule(kind=rule).target(1000))[0].rx
    assert len(g) == 1000
    tracemalloc.start()
    try:
        beampattern(g, 0.0, grid_size=16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# --- the run form ------------------------------------------------------------


def rebuilt_ticks(runs):
    starts, steps, lengths = runs
    return np.concatenate([a + d * np.arange(m) for a, d, m in zip(starts, steps, lengths)])


def recentred_ticks(g):
    (ticks,), _ = position_ticks(g)
    return ticks - ticks[0]


def test_run_split_rebuilds_the_ticks_and_family_sides_are_at_most_two_runs():
    for family in FAMILIES:
        for rule in ("linear", "quadratic"):
            for n in (11, 100, 300, 1000):
                layout = build_family_layout(family, n, ApertureRule(kind=rule).target(n))[0]
                for g in (layout.tx, layout.rx):
                    t = recentred_ticks(g)
                    runs = _runs(t)
                    assert np.array_equal(rebuilt_ticks(runs), t)
                    assert len(runs[0]) <= 2, (family, rule, n)


def test_run_split_is_greedy_and_maximal():
    rng = np.random.default_rng(15)
    sets = [np.array([0]), np.array([0, 7]), np.array([0, 5, 6, 7, 9, 11, 13, 14])]
    sets += [np.unique(rng.integers(0, span, 40)) for span in (45, 120, 10**6)]
    for t in sets:
        t = t - t[0]
        starts, steps, lengths = runs = _runs(t)
        assert np.array_equal(rebuilt_ticks(runs), t)
        assert np.all(lengths >= 1) and np.all(steps >= 1)
        ends = starts + steps * (lengths - 1)
        for i in range(len(starts) - 1):
            if lengths[i] > 1:
                # a run of three or more ticks stops where the spacing changes
                assert lengths[i] >= 3 and starts[i + 1] - ends[i] != steps[i]
            elif lengths[i + 1] > 1 or i + 2 < len(starts):
                # a lone tick and the next two ticks are no run of three
                after = starts[i + 1] + steps[i + 1] if lengths[i + 1] > 1 else starts[i + 2]
                assert after - starts[i + 1] != starts[i + 1] - starts[i]
    assert [len(_runs(t)[0]) for t in sets[:3]] == [1, 2, 4]


@st.composite
def progression_unions(draw):
    """Unions of 1-4 arithmetic progressions (integer start, step >= 1, 1-200
    terms), maybe scaled by 1/q for q in {2, 3, 7}, translated by up to 1e6,
    duplicates dropped."""
    ticks = set()
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-10**4, 10**4))
        step = draw(st.integers(1, 1000))
        ticks.update(range(start, start + step * draw(st.integers(1, 200)), step))
    q = draw(st.sampled_from([1, 2, 3, 7]))
    offset = draw(st.integers(0, 10**6))
    return ArrayGeometry([Fraction(t, q) + offset for t in ticks])


@settings(max_examples=100, deadline=None)
@given(progression_unions(), st.floats(-np.pi / 2, np.pi / 2))
def test_array_factor_matches_recentred_sum_on_progression_unions(g, theta_s):
    curve = beampattern(g, theta_s, grid_size=257)
    assert_matches_recentred_sum(g, curve.thetas, theta_s)
    # beampattern's magnitudes, read back from dB; samples clamped at the floor lie below it
    want = longdouble_array_factor(g.positions, curve.thetas, theta_s)
    floor = curve.gains_db <= DB_FLOOR
    got = 10.0 ** (curve.gains_db / 20.0)
    assert np.max(np.abs(got - want)[~floor], initial=0.0) <= 1e-11 * len(g)
    assert np.all(want[floor] <= 10.0 ** (DB_FLOOR / 20.0) + 1e-11 * len(g))


# --- grating-lobe scan against a per-sample loop ------------------------------


def reference_grating_lobes(curve, tol_db):
    """The per-sample scan: local maxima at or above peak - tol_db."""
    db, th = curve.gains_db, curve.thetas
    if len(db) < 3:
        return []
    threshold = float(db.max()) - tol_db
    step = curve.grid_step
    lobes = []
    for i in range(len(db)):
        left_ok = i == 0 or db[i] >= db[i - 1]
        right_ok = i == len(db) - 1 or db[i] >= db[i + 1]
        if not (left_ok and right_ok) or db[i] < threshold:
            continue
        if 0 < i < len(db) - 1 and min(db[i - 1], db[i], db[i + 1]) > DB_FLOOR + 1e-9:
            y0, y1, y2 = db[i - 1], db[i], db[i + 1]
            denom = y0 - 2.0 * y1 + y2
            offset = 0.0 if abs(denom) < 1e-300 else max(-0.5, min(0.5, 0.5 * (y0 - y2) / denom))
            angle = float(th[i] + offset * (th[1] - th[0]))
        else:
            angle = float(th[i])
        if abs(angle - curve.steering) <= 1.5 * step:
            continue
        if lobes and angle - lobes[-1] <= 1.5 * step:
            continue
        lobes.append(angle)
    return lobes


def synthetic_curves():
    """Curves with plateaus, ties, -120 dB floors and edge maxima."""
    rng = np.random.default_rng(6)
    curves = []
    for size in (3, 33, 4096):
        thetas = np.linspace(-np.pi / 2, np.pi / 2, size)
        for k in range(12):
            levels = rng.choice([DB_FLOOR, -40.0, -3.0, -0.25, 0.0], size=size)
            if k % 3 == 1:  # runs of equal samples: plateaus and tied peaks
                levels = np.repeat(levels[: size // 4 + 1], 4)[:size]
            if k % 3 == 2:  # a smooth ripple with flat tops cut at 0 dB
                levels = np.minimum(0.0, 3.0 * np.cos(rng.uniform(2, 40) * thetas)) - 1e-3 * (k % 2)
            steering = float(thetas[rng.integers(size)])
            curves.append(BeampatternCurve(thetas=thetas, gains_db=levels, steering=steering, normalized=True))
        curves.append(BeampatternCurve(thetas=thetas, gains_db=np.full(size, DB_FLOOR), steering=0.0, normalized=False))
    return curves


def test_grating_lobes_match_loop_reference_on_synthetic_curves():
    for curve in synthetic_curves():
        for tol_db in (0.0, 0.5, 3.0, 200.0):
            assert grating_lobes(curve, tol_db) == reference_grating_lobes(curve, tol_db)


@pytest.mark.parametrize("grid_size", [3, 33, 4096])
def test_grating_lobes_match_loop_reference_on_patterns(grid_size):
    geometries = [ula(11), ula(8, spacing=4), generate_interleaved(11, 2).rx, generate_nested(6, 5, 3).rx]
    for g in geometries:
        for theta_s in (0.0, 0.52, -1.2):
            for normalized in (False, True):
                curve = beampattern(g, theta_s, grid_size=grid_size, normalized=normalized)
                for tol_db in (0.5, 6.0):
                    assert grating_lobes(curve, tol_db) == reference_grating_lobes(curve, tol_db)


# --- main-lobe width against per-sample walkers -------------------------------


def reference_main_lobe_width(curve):
    """The per-sample walk: outward from the peak to the first local minimum on
    each side, else to the first sample at or below half power."""
    db, th = curve.gains_db, curve.thetas
    if float(db.max() - db.min()) < 1e-9:
        raise ValueError("degenerate flat curve has no main lobe")
    peak = _local_peak_index(curve)
    peak_db = float(db[peak])

    def first_minimum(step):
        i = peak + step
        while 0 < i < len(db) - 1:
            if db[i] <= db[i - 1] and db[i] <= db[i + 1]:
                return i
            i += step
        return None

    def half_power_crossing(step):
        i = peak
        while 0 <= i + step < len(db) and db[i + step] > target:
            i += step
        j = i + step
        if j < 0 or j >= len(db):
            raise ValueError("curve never drops to the half-power level; cannot measure width")
        frac = (db[i] - target) / (db[i] - db[j])
        return float(th[i] + frac * (th[j] - th[i]))

    nulls = first_minimum(-1), first_minimum(+1)
    if None not in nulls and all(db[i] <= peak_db - 20.0 for i in nulls):
        left, right = (_refine_parabolic(th, db, i) for i in nulls)
        return MainLobeWidth(width=right - left, method="null_to_null", left=left, right=right)
    target = peak_db - _HALF_POWER_DB
    left, right = half_power_crossing(-1), half_power_crossing(+1)
    return MainLobeWidth(width=right - left, method="half_power", left=left, right=right)


def lobe_width_or_error(measure, curve):
    try:
        return measure(curve)
    except ValueError as exc:
        return str(exc)


def lobe_pattern_curves():
    """ULA and family-side patterns, steered and normalized, at 3 to 16384 points."""
    sides = [ula(16), ula(8, spacing=4), generate_interleaved(11, 2).rx, generate_nested(6, 5, 3).rx]
    sides += [build_family_layout(f, 40, ApertureRule(kind="linear").target(40))[0].tx for f in FAMILIES]
    for grid_size in (3, 33, 4096, 16384):
        for g in sides:
            for theta_s in (0.0, 0.3, -1.2, 1.5):
                for normalized in (False, True):
                    yield beampattern(g, theta_s, grid_size=grid_size, normalized=normalized)


def test_main_lobe_width_matches_loop_reference():
    outcomes = Counter()
    for curve in [*synthetic_curves(), *lobe_pattern_curves()]:
        got = lobe_width_or_error(main_lobe_width, curve)
        assert got == lobe_width_or_error(reference_main_lobe_width, curve)
        outcomes[got if isinstance(got, str) else got.method] += 1
    # both methods and both errors are reached
    assert len(outcomes) == 4, outcomes


@settings(max_examples=100, deadline=None)
@given(progression_unions(), st.floats(-np.pi / 2, np.pi / 2), st.sampled_from([3, 4, 5, 33, 257]), st.booleans())
def test_main_lobe_width_matches_loop_reference_on_progression_unions(g, theta_s, grid_size, normalized):
    curve = beampattern(g, theta_s, grid_size=grid_size, normalized=normalized)
    got = lobe_width_or_error(main_lobe_width, curve)
    assert got == lobe_width_or_error(reference_main_lobe_width, curve)
