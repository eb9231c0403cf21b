import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fraction_distances, integer_grid_channel

from fdarray import si_model
from fdarray.cli import main as cli_main
from fdarray.experiments import DEFAULT_COEFF, ApertureRule, build_family_layout
from fdarray.files import (
    load_matrix_csv,
    load_matrix_json,
    save_layout,
    write_matrix_csv,
    write_matrix_json,
)
from fdarray.geometry import (
    FAMILIES,
    ArrayGeometry,
    ColocatedAntennaError,
    FullDuplexLayout,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
    position_ticks,
)
from fdarray.si_model import (
    DistanceMatrix,
    SIChannelMatrix,
    distance_matrix,
    is_toeplitz,
    numeric_matrix,
    si_matrix,
    sign_pattern,
)


def layout(tx, rx):
    return FullDuplexLayout(tx=ArrayGeometry(tuple(tx)), rx=ArrayGeometry(tuple(rx)))


def fractions(dm):
    """The distances of a DistanceMatrix as rows of ``Fraction``."""
    return [[Fraction(t, dm.denom) for t in row] for row in dm.ticks.tolist()]


def test_distance_matrix_partitioned_reference():
    dm = distance_matrix(generate_partitioned(2, 0))
    assert fractions(dm) == [[2, 3], [1, 2]]


def test_distance_matrix_interleaved_reference():
    dm = distance_matrix(generate_interleaved(2, 1))
    assert fractions(dm) == [[1, 3], [1, 1]]


def test_distance_matrix_single_pair():
    dm = distance_matrix(layout(tx=[5], rx=[0]))
    assert fractions(dm) == [[5]]


def test_distance_matrix_general_structure():
    # partitioned distances are delta1 plus a band of consecutive integers
    n, delta1 = 4, 7
    dm = fractions(distance_matrix(generate_partitioned(n, delta1)))
    for i in range(n):
        for j in range(n):
            assert dm[i][j] == delta1 + n + j - i
    # interleaved distances are delta2 times odd integers
    n, delta2 = 4, 3
    dm = fractions(distance_matrix(generate_interleaved(n, delta2)))
    for i in range(n):
        for j in range(n):
            assert dm[i][j] == delta2 * abs(2 * (j - i) + 1)


def test_si_matrix_single_pair_is_minus_one():
    ch = si_matrix(layout(tx=[1], rx=[0]), 1.0)
    assert ch.h[0, 0] == -1.0


def test_si_matrix_partitioned_reference_values():
    ch = si_matrix(generate_partitioned(2, 0), 1.0)
    expected = np.array([[1 / 2, -1 / 3], [-1.0, 1 / 2]])
    assert np.array_equal(ch.h.real, expected)
    assert np.all(ch.h.imag == 0)


def test_si_matrix_interleaved_reference_values():
    ch = si_matrix(generate_interleaved(2, 1), 1.0)
    expected = -np.array([[1.0, 1 / 3], [1.0, 1.0]])
    assert np.array_equal(ch.h.real, expected)


def test_si_matrix_rejects_bad_rho():
    lay = generate_partitioned(2, 0)
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError):
            si_matrix(lay, rho)


@pytest.mark.parametrize("rho", [float("inf"), float("-inf"), float("nan")])
def test_si_matrix_rejects_non_finite_rho(rho, tmp_path, capsys):
    lay = generate_nested(3, 3, 2)
    with pytest.raises(ValueError, match="finite"):
        si_matrix(lay, rho)
    geo = tmp_path / "g.json"
    save_layout(lay, geo)
    out = tmp_path / "si.json"
    code = cli_main(["si", "--geometry", str(geo), f"--rho={rho}", "--format", "json", "-o", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("fdarray: error:")
    assert not out.exists()


def test_integer_grid_exactness():
    rng = random.Random(7)
    for _ in range(20):
        rx = sorted(rng.sample(range(0, 60), rng.randint(1, 8)))
        remaining = [p for p in range(0, 60) if p not in rx]
        tx = sorted(rng.sample(remaining, rng.randint(1, 8)))
        ch = si_matrix(layout(tx=tx, rx=rx), rho=1.5)
        assert np.all(ch.h.imag == 0.0)
        for n, r in enumerate(rx):
            for m, t in enumerate(tx):
                assert np.sign(ch.h[n, m].real) == (-1.0) ** abs(r - t)


def test_model_fidelity_on_rational_layouts():
    rng = random.Random(3)
    for _ in range(20):
        rx = {Fraction(rng.randint(0, 400), rng.choice([1, 2, 4, 8])) for _ in range(6)}
        tx = {Fraction(rng.randint(0, 400), rng.choice([3, 5, 7])) for _ in range(6)}
        tx -= rx
        if not tx or not rx:
            continue
        lay = layout(tx=tx, rx=rx)
        ch = si_matrix(lay, rho=2.25)
        dm = fraction_distances(lay)
        for n in range(len(lay.rx)):
            for m in range(len(lay.tx)):
                ratio = abs(ch.h[n, m]) * float(dm[n][m]) / ch.rho
                assert abs(ratio - 1.0) < 1e-12


def test_scale_linearity():
    lay = generate_nested(3, 2, 2)
    base = si_matrix(lay, 1.0)
    assert np.array_equal(si_matrix(lay, 2.0).h, 2.0 * base.h)
    scaled = si_matrix(lay, 1.7)
    assert np.allclose(scaled.h, 1.7 * base.h, rtol=1e-12, atol=0)


def test_toeplitz_structure_of_uniform_families():
    for n in (1, 2, 3, 8, 17):
        for delta1 in (0, 2, 5):
            lay = generate_partitioned(n, delta1)
            assert is_toeplitz(distance_matrix(lay))
            assert is_toeplitz(si_matrix(lay, 0.7))
        for delta2 in (1, 3, 5):
            lay = generate_interleaved(n, delta2)
            assert is_toeplitz(distance_matrix(lay))
            assert is_toeplitz(si_matrix(lay, 0.7))


def test_nested_si_is_not_toeplitz():
    assert not is_toeplitz(si_matrix(generate_nested(6, 5, 3), 1.0))
    assert not is_toeplitz(distance_matrix(generate_nested(6, 5, 3)))


def test_is_toeplitz_edge_cases():
    assert is_toeplitz(np.array([[3.0]]))
    assert is_toeplitz([[1, 2], [3, 1]])
    assert not is_toeplitz([[1, 2], [3, 4]])


def test_sign_pattern_classification():
    assert sign_pattern(si_matrix(generate_partitioned(4, 0), 1.0)) == "alternating"
    assert sign_pattern(si_matrix(generate_interleaved(4, 1), 1.0)) == "uniform"
    assert sign_pattern(si_matrix(generate_interleaved(4, 2), 1.0)) == "uniform"
    ch = si_matrix(layout(tx=[Fraction(1, 2)], rx=[0]), 1.0)
    assert sign_pattern(ch) == "complex"
    # a lone pair is trivially one-signed
    assert sign_pattern(si_matrix(layout(tx=[1], rx=[0]), 1.0)) == "uniform"


@pytest.mark.parametrize("n", (10, 100, 300))
@pytest.mark.parametrize("rule", ("linear", "quadratic"))
@pytest.mark.parametrize("family", ("partitioned", "interleaved", "nested"))
def test_integer_grid_channel_is_float64_with_exact_entries(family, rule, n):
    lay = build_family_layout(family, n, ApertureRule(kind=rule).target(n))[0]
    ch = si_matrix(lay, 0.61)
    assert ch.h.dtype == np.float64
    assert ch.h.nbytes == 8 * len(lay.rx) * len(lay.tx)
    distances = fraction_distances(lay)
    assert ch.h.tobytes() == integer_grid_channel(distances, 0.61).tobytes()
    # interleaved distances are delta2 times odd integers: one parity, one sign
    parities = {d.numerator % 2 for row in distances for d in row}
    assert sign_pattern(ch) == ("uniform" if len(parities) == 1 else "alternating")
    assert sign_pattern(SIChannelMatrix(ch.h.astype(complex), ch.rho, ch.layout, ch.delta)) == sign_pattern(ch)


def test_fractional_distances_make_a_complex_channel():
    base = generate_nested(6, 5, 3)
    thirds = FullDuplexLayout(tx=base.tx.scaled(Fraction(1, 3)), rx=base.rx.scaled(Fraction(1, 3)))
    ch = si_matrix(thirds, 0.61)
    assert ch.h.dtype == np.complex128
    assert sign_pattern(ch) == "complex"
    mixed = si_matrix(layout(tx=[2, Fraction(5, 2)], rx=[0]), 1.0)
    assert mixed.h.dtype == np.complex128
    assert mixed.h[0, 0].real == 0.5 and mixed.h[0, 0].imag == 0.0
    assert not np.signbit(mixed.h[0, 0].imag)
    assert mixed.h[0, 1].imag != 0


def test_sign_pattern_mixed_for_inconsistent_matrix():
    base = si_matrix(generate_partitioned(2, 0), 1.0)
    doctored = base.h.copy()
    doctored[0, 1] = abs(doctored[0, 1])  # break the parity rule
    fake = SIChannelMatrix(h=doctored, rho=1.0, layout=base.layout, delta=base.delta)
    assert sign_pattern(fake) == "mixed"
    # an entry without a sign, at an even and at an odd distance
    for value in (0.0, -0.0, float("nan")):
        for i, j in ((0, 0), (0, 1)):
            doctored = base.h.copy()
            doctored[i, j] = value
            fake = SIChannelMatrix(h=doctored, rho=1.0, layout=base.layout, delta=base.delta)
            assert sign_pattern(fake) == "mixed"


def reference_si_matrix(layout, rho):
    """The per-entry synthesis: the kernel evaluated at every entry's distance,
    taken from the positions' ticks over their common denominator q, not
    reduced, as the Python quotient tick / q."""
    (tx, rx), q = position_ticks(layout.tx, layout.rx)
    ticks = [[abs(r - t) for t in tx.tolist()] for r in rx.tolist()]
    whole = np.array([[t // q for t in row] for row in ticks])
    frac = np.array([[t % q != 0 for t in row] for row in ticks])
    df = np.array([[t / q for t in row] for row in ticks])
    h = np.where(whole & 1, -rho, rho) / df
    if frac.any():
        h = h.astype(complex)
        h[frac] = rho * np.exp(1j * np.pi * df[frac]) / df[frac]
    return h


def reference_sign_pattern(h):
    """The sign classes from signed int64 parities and ``np.sign``."""
    re = numeric_matrix(h)
    if np.iscomplexobj(re):
        return "complex"
    if np.all(re > 0) or np.all(re < 0):
        return "uniform"
    whole, rest = np.divmod(h.delta.ticks, h.delta.denom)
    if rest.any() or np.any(np.sign(re) != 1 - 2 * (whole & 1)):
        return "mixed"
    return "alternating"


def thirds(tx, rx):
    return layout(tx=[Fraction(t, 3) for t in tx], rx=[Fraction(t, 3) for t in rx])


@st.composite
def rational_layouts(draw):
    """2 to 40 antennas on ticks of 1/q, q up to past 2**53, dealt to Tx and
    Rx at random. Gaps of one tick pack them densely (a kernel table); gaps
    of up to 1e8 ticks spread them (one kernel call per entry). Half of the
    layouts put every tick on one residue mod q, so that every distance is
    whole although q > 1."""
    q = draw(st.sampled_from([1, 2, 3, 7, 1000003, 2**53 - 1, 2**53, 2**53 + 1]))
    whole = draw(st.booleans())
    n = draw(st.integers(2, 40))
    gap = draw(st.sampled_from([1, 2, 3, 10**8]))
    if whole:
        gap = max(1, min(gap, 2**61 // (q * n)))
    ticks = np.cumsum([draw(st.integers(-3, 3))] + draw(st.lists(st.integers(1, gap), min_size=n - 1, max_size=n - 1)))
    if whole:
        ticks = ticks * q + draw(st.integers(0, q - 1))
    is_tx = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda b: any(b) and not all(b)))
    tx = [Fraction(int(t), q) for t, side in zip(ticks, is_tx) if side]
    rx = [Fraction(int(t), q) for t, side in zip(ticks, is_tx) if not side]
    return layout(tx=tx, rx=rx)


@settings(max_examples=300, deadline=None)
@given(rational_layouts(), st.floats(0.05, 20.0))
@example(thirds([1, 7], [4]), 0.61)  # one residue mod 3: distances 1 and 2, float64
@example(thirds(range(1, 72, 6), range(4, 72, 6)), 0.61)  # the same, 24 antennas: whole distances over 1, tabulated
@example(layout([Fraction(t, 2**53 - 1) for t in range(1, 24, 2)], [Fraction(t, 2**53 - 1) for t in range(0, 24, 2)]), 0.5)
@example(layout([Fraction(t, 2**53 + 1) for t in range(1, 24, 2)], [Fraction(t, 2**53 + 1) for t in range(0, 24, 2)]), 0.5)
@example(layout([Fraction(1, 1000003)], [0, Fraction(1, 7)]), 0.5)  # span about 1.4e11 ticks
@example(layout([0, 10**9], [1, 2, 3]), 1.0)
def test_si_matrix_is_the_per_entry_kernel_bit_for_bit(lay, rho):
    want = reference_si_matrix(lay, rho)
    got = si_matrix(lay, rho).h
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(rational_layouts())
@example(thirds([1, 7], [4]))  # one residue mod 3: every distance whole
def test_distances_are_over_their_smallest_denominator(lay):
    dm = distance_matrix(lay)
    assert math.gcd(dm.denom, *dm.ticks.ravel().tolist()) == 1
    tx, rx = ([Fraction(p) for p in side.positions] for side in (lay.tx, lay.rx))
    assert fractions(dm) == [[abs(r - t) for t in tx] for r in rx]


@pytest.mark.parametrize(
    "tx, rx, tabulated",
    [
        ([Fraction(t, 3) for t in range(1, 72, 6)], [Fraction(t, 3) for t in range(4, 72, 6)], True),
        ([Fraction(1, 3), Fraction(7, 3)], [Fraction(4, 3)], True),
        (range(10, 20), range(10), True),
        *(([Fraction(t, q) for t in range(1, 24, 2)], [Fraction(t, q) for t in range(0, 24, 2)], q < 2**53)
          for q in (3, 2**53 - 1, 2**53)),
        ([Fraction(1, 1000003)], [0, Fraction(1, 7)], False),
        ([0, 1000], [1, 2, 3], False),
    ],
    ids=["whole-thirds", "whole-thirds-pair", "integer", "fractional-thirds", "denominator-below-2**53",
         "denominator-2**53", "float-json-span", "wide-span"],
)
def test_both_sides_of_the_table_switch_match_the_per_entry_kernel(tx, rx, tabulated, monkeypatch):
    # the kernel runs once, on the 1-D tick range for a table or on the 2-D distance ticks
    lay = layout(tx, rx)
    calls = []
    kernel = si_model._kernel
    monkeypatch.setattr(si_model, "_kernel", lambda ticks, rho, denom: calls.append(ticks.ndim) or kernel(ticks, rho, denom))
    got = si_matrix(lay, 0.7).h
    assert calls == [1 if tabulated else 2]
    want = reference_si_matrix(lay, 0.7)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rule", sorted(DEFAULT_COEFF))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sign_pattern_of_family_layouts_matches_the_reference(family, rule):
    for n in (2, 3, 10, 33, 100):
        lay = build_family_layout(family, n, ApertureRule(kind=rule).target(n))[0]
        for scale in (1, Fraction(1, 3)):
            scaled = FullDuplexLayout(tx=lay.tx.scaled(scale), rx=lay.rx.scaled(scale))
            ch = si_matrix(scaled, 0.3)
            assert ch.h.tobytes() == reference_si_matrix(scaled, 0.3).tobytes()
            assert sign_pattern(ch) == reference_sign_pattern(ch)


SPECIALS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), "flip", "imag"])


@st.composite
def doctored_channels(draw):
    """SI matrices of family or random layouts, some entries replaced by a
    special value, negated or given an imaginary part, stored real or complex."""
    if draw(st.booleans()):
        family = draw(st.sampled_from(sorted(FAMILIES)))
        n = draw(st.integers(2, 12))
        lay = build_family_layout(family, n, ApertureRule(kind=draw(st.sampled_from(sorted(DEFAULT_COEFF)))).target(n))[0]
    else:
        lay = draw(rational_layouts())
    ch = si_matrix(lay, draw(st.floats(0.1, 2.0)))
    h = ch.h.astype(complex) if draw(st.booleans()) else ch.h.copy()
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, h.shape[0] - 1)), draw(st.integers(0, h.shape[1] - 1))
        value = draw(SPECIALS)
        if value == "flip":
            h[i, j] = -h[i, j]
        elif value == "imag":
            h = h.astype(complex)
            h[i, j] += draw(st.sampled_from([1e-300j, -1j, -0.0j]))
        else:
            h[i, j] = value
    return SIChannelMatrix(h=h, rho=ch.rho, layout=ch.layout, delta=ch.delta)


@settings(max_examples=400, deadline=None)
@given(doctored_channels())
def test_sign_pattern_matches_the_reference_on_doctored_channels(ch):
    assert sign_pattern(ch) == reference_sign_pattern(ch)


def test_distance_matrix_guards_colocated_pairs():
    lay = generate_partitioned(2, 0)
    hacked = object.__new__(FullDuplexLayout)
    object.__setattr__(hacked, "tx", ArrayGeometry((0, 2)))
    object.__setattr__(hacked, "rx", ArrayGeometry((0, 1)))
    object.__setattr__(hacked, "label", "")
    with pytest.raises(ColocatedAntennaError):
        distance_matrix(hacked)
    assert distance_matrix(lay)  # sane layouts pass


def test_matrix_csv_round_trip_complex(tmp_path):
    lay = layout(tx=[Fraction(1, 2), Fraction(7, 3)], rx=[0, 1])
    ch = si_matrix(lay, 0.3)
    path = tmp_path / "m.csv"
    write_matrix_csv(ch, path)
    loaded = load_matrix_csv(path)
    assert loaded.dtype == complex
    assert np.array_equal(loaded, ch.h)


def test_matrix_csv_round_trip_real(tmp_path):
    ch = si_matrix(generate_partitioned(3, 1), 1.0)
    path = tmp_path / "m.csv"
    write_matrix_csv(ch, path)
    text = path.read_text()
    assert "i" not in text
    loaded = load_matrix_csv(path)
    assert loaded.dtype == float
    assert np.array_equal(loaded, ch.h.real)


@pytest.mark.parametrize(
    "arr, want",
    [
        (np.array([[True, False]]), [[1.0, 0.0]]),
        (np.array([[1, -2], [3, 2**53 + 1]]), [[1.0, -2.0], [3.0, 2.0**53]]),
        (np.array([[0.1, -1e-40]], dtype=np.float32), [[float(np.float32(0.1)), float(np.float32(-1e-40))]]),
        (np.array([[Fraction(1, 3), Fraction(-7, 2)]], dtype=object), [[1 / 3, -3.5]]),
        (np.array([[1.5 + 0j, -2.0 + 0j]]), [[1.5, -2.0]]),
        (np.array([[1.5 - 0.0j, complex(-0.0, -0.0)]]), [[1.5, -0.0]]),
        (np.array([[1.5 - 0.0j, 2.0 + 1e-300j]]), [[1.5 - 0.0j, 2.0 + 1e-300j]]),
    ],
    ids=["bool", "int", "float32", "fractions", "zero-imaginary", "negative-zero-imaginary", "complex"],
)
def test_numeric_matrix_is_float64_unless_an_imaginary_part_is_nonzero(arr, want):
    got = numeric_matrix(arr)
    assert got.dtype == np.asarray(want).dtype
    assert got.tobytes() == np.asarray(want).tobytes()
    if got.dtype == np.float64 and np.iscomplexobj(arr):
        assert got.flags.owndata  # a copy, not a strided view of the complex array


@pytest.mark.parametrize(
    "arr",
    [
        np.array([[1, -2], [3, 40]]),
        np.array([[True, False]]),
        np.array([[0.1, 2.5], [-1e-300, 7.0]], dtype=np.float32),
        np.array([[1.0 + 0j, 2.0 - 0.0j]]),
        np.array([[0.1 + 0.2j, -0.0 - 1j]], dtype=np.complex64),
    ],
    ids=["int", "bool", "float32", "zero-imaginary", "complex64"],
)
def test_matrix_csv_cells_of_every_dtype(tmp_path, arr):
    """Each cell is the repr of its float64 value, or "a+bi" when any entry is complex."""
    path = tmp_path / "m.csv"
    write_matrix_csv(arr, path)
    if np.iscomplexobj(arr) and arr.imag.any():
        def cell(z):
            sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
            return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i"
    else:
        def cell(x):
            return repr(float(x.real))
    want = "".join(",".join(cell(v) for v in row) + "\n" for row in arr.tolist())
    assert path.read_text() == want


def test_matrix_csv_exponent_cells(tmp_path):
    arr = np.array([[4.71172488228e-07 + 1e-09j, -2.5e-03 - 1.5e-20j]])
    path = tmp_path / "m.csv"
    write_matrix_csv(arr, path)
    assert np.array_equal(load_matrix_csv(path), arr)


def test_matrix_json_round_trip(tmp_path):
    ch = si_matrix(generate_nested(2, 2, 1), 0.2)
    path = tmp_path / "m.json"
    write_matrix_json(ch, path)
    assert np.array_equal(load_matrix_json(path), ch.h)


def test_matrix_loaders_reject_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,zap\n")
    with pytest.raises(ValueError):
        load_matrix_csv(path)
    path = tmp_path / "bad.json"
    path.write_text("[[1, 2], [3]]")
    with pytest.raises(ValueError):
        load_matrix_json(path)


@pytest.mark.parametrize(
    "doc", ['[[{"0": 1, "1": 0}]]', "[[[1, 2, 3]]]", "[[[true, false]]]", '{"": 1}', "[[]]", "[{}]"]
)
def test_svd_cli_rejects_malformed_json_cells(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert cli_main(["svd", "--matrix", str(path), "-o", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fdarray: error:") and str(path) in err


@pytest.mark.parametrize("text", ["1,abc\n", "1,2i,\n", "1+2j\n"])
def test_svd_cli_names_the_csv_file_of_a_malformed_cell(tmp_path, capsys, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert cli_main(["svd", "--matrix", str(path), "-o", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fdarray: error:") and str(path) in err
