import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fdarray.cli import main as cli_main
from fdarray.files import (
    load_matrix_csv,
    load_matrix_json,
    save_layout,
    write_matrix_csv,
    write_matrix_json,
)
from fdarray.geometry import (
    ArrayGeometry,
    ColocatedAntennaError,
    FullDuplexLayout,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
)
from fdarray.si_model import (
    DistanceMatrix,
    SIChannelMatrix,
    distance_matrix,
    is_toeplitz,
    si_leakage,
    si_matrix,
    sign_pattern,
)


def layout(tx, rx):
    return FullDuplexLayout(tx=ArrayGeometry(tuple(tx)), rx=ArrayGeometry(tuple(rx)))


def test_distance_matrix_partitioned_reference():
    dm = distance_matrix(generate_partitioned(2, 0))
    assert dm.entries == ((2, 3), (1, 2))


def test_distance_matrix_interleaved_reference():
    dm = distance_matrix(generate_interleaved(2, 1))
    assert dm.entries == ((1, 3), (1, 1))


def test_distance_matrix_single_pair():
    dm = distance_matrix(layout(tx=[5], rx=[0]))
    assert dm.entries == ((5,),)
    assert dm.is_integer


def test_distance_matrix_general_structure():
    # partitioned distances are delta1 plus a band of consecutive integers
    n, delta1 = 4, 7
    dm = distance_matrix(generate_partitioned(n, delta1))
    for i in range(n):
        for j in range(n):
            assert dm.entries[i][j] == delta1 + n + j - i
    # interleaved distances are delta2 times odd integers
    n, delta2 = 4, 3
    dm = distance_matrix(generate_interleaved(n, delta2))
    for i in range(n):
        for j in range(n):
            assert dm.entries[i][j] == delta2 * abs(2 * (j - i) + 1)


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
        dm = distance_matrix(lay)
        for n in range(len(lay.rx)):
            for m in range(len(lay.tx)):
                ratio = abs(ch.h[n, m]) * float(dm.entries[n][m]) / ch.rho
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
            assert is_toeplitz(distance_matrix(lay), tol=0)
            assert is_toeplitz(si_matrix(lay, 0.7), tol=0)
        for delta2 in (1, 3, 5):
            lay = generate_interleaved(n, delta2)
            assert is_toeplitz(distance_matrix(lay), tol=0)
            assert is_toeplitz(si_matrix(lay, 0.7), tol=0)


def test_nested_si_is_not_toeplitz():
    assert not is_toeplitz(si_matrix(generate_nested(6, 5, 3), 1.0))
    assert not is_toeplitz(distance_matrix(generate_nested(6, 5, 3)))


def test_is_toeplitz_edge_cases():
    assert is_toeplitz(np.array([[3.0]]))
    assert is_toeplitz([[1, 2], [3, 1]])
    assert not is_toeplitz([[1, 2], [3, 4]])
    assert is_toeplitz(np.array([[1.0, 2.0], [3.0, 1.0 + 1e-9]]), tol=1e-8)
    assert not is_toeplitz(np.array([[1.0, 2.0], [3.0, 1.0 + 1e-9]]), tol=1e-10)
    with pytest.raises(ValueError):
        is_toeplitz(np.ones((2, 2)), tol=-1.0)


def test_sign_pattern_classification():
    assert sign_pattern(si_matrix(generate_partitioned(4, 0), 1.0)) == "alternating"
    assert sign_pattern(si_matrix(generate_interleaved(4, 1), 1.0)) == "uniform"
    assert sign_pattern(si_matrix(generate_interleaved(4, 2), 1.0)) == "uniform"
    ch = si_matrix(layout(tx=[Fraction(1, 2)], rx=[0]), 1.0)
    assert sign_pattern(ch) == "complex"
    # a lone pair is trivially one-signed
    assert sign_pattern(si_matrix(layout(tx=[1], rx=[0]), 1.0)) == "uniform"


def test_sign_pattern_mixed_for_inconsistent_matrix():
    base = si_matrix(generate_partitioned(2, 0), 1.0)
    doctored = base.h.copy()
    doctored[0, 1] = abs(doctored[0, 1])  # break the parity rule
    fake = SIChannelMatrix(h=doctored, rho=1.0, layout=base.layout, delta=base.delta)
    assert sign_pattern(fake) == "mixed"


def test_si_leakage():
    assert si_leakage(np.array([[-1.0 + 0j]]), [1]) == np.array([-1.0 + 0j])
    ch = si_matrix(generate_interleaved(2, 1), 1.0)
    out = si_leakage(ch, [1, 0])
    assert np.array_equal(out, np.array([-1.0 + 0j, -1.0 + 0j]))
    assert np.all(si_leakage(ch, [0, 0]) == 0)
    with pytest.raises(ValueError):
        si_leakage(ch, [1, 0, 0])


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
