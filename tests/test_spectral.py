import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    factored_svd,
    interleaved_closed_form_n2,
    interleaved_sigma1_bracket,
    singular_values_2x2,
    singular_values_3x3,
)
from test_properties import rational_layouts

from fractions import Fraction

from fdarray.cli import main as cli_main
from fdarray.experiments import ApertureRule, build_family_layout, partitioned_rank1_gap
from fdarray.files import write_spectrum_csv
from fdarray.geometry import FullDuplexLayout, generate_interleaved, generate_partitioned
from fdarray.si_model import si_matrix
from fdarray.spectral import effective_rank, spectral_norm, svd_spectrum


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def test_identity_and_diagonal_spectra():
    spec = svd_spectrum(np.eye(2))
    assert np.array_equal(spec.sigmas, [1.0, 1.0])
    spec = svd_spectrum(np.diag([3.0, -2.0]))
    assert np.array_equal(spec.sigmas, [3.0, 2.0])


def test_interleaved_n2_matches_closed_form():
    expected = interleaved_closed_form_n2(1.0, 1)
    spec = svd_spectrum(si_matrix(generate_interleaved(2, 1), 1.0))
    for got, ref in zip(spec.sigmas, expected):
        assert abs(got - ref) <= 1e-9 * ref
    # headline approximations
    assert abs(expected[0] - 1.72077) < 1e-4
    assert abs(expected[1] - 0.38742) < 1e-4


def test_closed_form_scaling_and_ratio():
    assert interleaved_closed_form_n2(2.0, 2) == interleaved_closed_form_n2(1.0, 1)
    s1, s2 = interleaved_closed_form_n2(0.7, 5)
    ratio = s1 / s2
    exact = math.sqrt((14 + 4 * math.sqrt(10)) / (14 - 4 * math.sqrt(10)))
    assert abs(ratio - exact) < 1e-12
    assert abs(ratio - 4.4417) < 5e-4
    with pytest.raises(ValueError):
        interleaved_closed_form_n2(0.0, 1)
    with pytest.raises(ValueError):
        interleaved_closed_form_n2(1.0, 0)


def test_spectral_norm_basics():
    assert spectral_norm(np.zeros((3, 4))) == 0.0
    u = np.array([3 / 5, 4 / 5])
    v = np.array([1 / math.sqrt(2), 1j / math.sqrt(2)])
    assert abs(spectral_norm(np.outer(u, v.conj())) - 1.0) < 1e-12
    got = spectral_norm(si_matrix(generate_interleaved(2, 1), 1.0))
    assert abs(got - 1.72077) < 1e-4


def test_svd_contract_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(60):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        h = random_complex(rng, rows, cols)
        spec = svd_spectrum(h)
        assert len(spec.sigmas) == min(rows, cols)
        assert np.all(np.diff(spec.sigmas) <= 0)
        assert np.all(spec.sigmas >= 0)
        assert abs(np.sum(spec.sigmas**2) - spec.frob**2) <= 1e-9 * spec.frob**2
        assert spec.recon_error <= 1e-9 * spec.sigmas[0]


def test_scale_equivariance():
    rng = np.random.default_rng(1)
    h = random_complex(rng, 9, 5)
    base = svd_spectrum(h).sigmas
    scaled = svd_spectrum(2.0 * h).sigmas
    assert np.allclose(scaled, 2.0 * base, rtol=1e-12, atol=0)


def test_oracle_equivalence_small_matrices():
    rng = np.random.default_rng(11)
    for _ in range(200):
        h2 = random_complex(rng, 2, 2)
        got = svd_spectrum(h2).sigmas
        ref = singular_values_2x2(h2)
        assert np.all(np.abs(got - ref) <= 1e-9 * max(ref[0], 1e-300))
        h3 = random_complex(rng, 3, 3)
        got = svd_spectrum(h3).sigmas
        ref = singular_values_3x3(h3)
        assert np.all(np.abs(got - ref) <= 1e-9 * max(ref[0], 1e-300))


def test_oracle_equivalence_on_si_channels():
    for delta1 in (0, 1, 10, 100):
        h = si_matrix(generate_partitioned(2, delta1), 1.0).h
        got = svd_spectrum(h).sigmas
        ref = singular_values_2x2(h)
        assert np.all(np.abs(got - ref) <= 1e-9 * ref[0])


def test_effective_rank():
    spec = svd_spectrum(np.diag([1.0, 1e-8]))
    assert effective_rank(spec, 1e-6) == 1

    spec = svd_spectrum(si_matrix(generate_partitioned(2, 100), 1.0))
    assert effective_rank(spec, 1e-2) == 1

    for delta2 in (1, 4, 9):
        spec = svd_spectrum(si_matrix(generate_interleaved(2, delta2), 1.0))
        assert effective_rank(spec, 0.1) == 2

    assert effective_rank(svd_spectrum(np.zeros((2, 2))), 0.5) == 0
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            effective_rank(spec, bad)


def test_partitioned_rank1_gap_decreases():
    rows = partitioned_rank1_gap([0, 10, 100])
    ratios = [r for _, r in rows]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[0] > 0
    # ratios agree with the quadratic-formula oracle
    for (delta1, ratio) in rows:
        s1, s2 = singular_values_2x2(si_matrix(generate_partitioned(2, delta1), 1.0).h)
        assert abs(ratio - s2 / s1) <= 1e-9
    with pytest.raises(ValueError):
        partitioned_rank1_gap([])


def test_partitioned_large_gap_limit_structure():
    delta1 = 1000
    h = si_matrix(generate_partitioned(2, delta1), 1.0).h.real
    col = np.array([1.0, -1.0]) / delta1
    approx = np.column_stack([col, -col]) * (-1.0) ** delta1
    assert np.max(np.abs(h - approx)) < 5.0 / delta1**2


# --- worst-case SI of the two Toeplitz families -----------------------------


def interleaved_sigma1(n, delta2):
    return spectral_norm(si_matrix(generate_interleaved(n, delta2), 1.0))


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_interleaved_sigma1_scales_as_one_over_the_spacing(n):
    # every distance is delta2*|2k + 1|, so H(N, delta2) = +-H(N, 1)/delta2 entrywise
    base = interleaved_sigma1(n, 1)
    for delta2 in (2, 3, 13, 104):
        assert abs(delta2 * interleaved_sigma1(n, delta2) - base) <= 1e-13 * base


@pytest.mark.parametrize("n", [100, 1000])
def test_interleaved_sigma1_lies_between_harmonic_sum_bounds(n):
    # both bounds grow like ln N, and so does sigma_1
    lower, upper = interleaved_sigma1_bracket(n)
    assert lower <= interleaved_sigma1(n, 1) <= upper
    assert 0 < upper - lower < 0.5


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_partitioned_sigma1_stays_below_rho_pi(n):
    # with its rows reversed H is +-D K D, D = diag((-1)**i) and K_ij = 1/(i + j + 1 + delta1):
    # Hilbert's inequality bounds ||K|| by pi for every N and delta1 >= 0
    rho = 0.7
    for delta1 in (0, 1, 5):
        assert spectral_norm(si_matrix(generate_partitioned(n, delta1), rho)) < rho * math.pi


def test_spectrum_rejects_bad_input():
    bad_inputs = (np.zeros((0, 3)), np.zeros((2, 0)), np.zeros(3), [[np.nan, 1.0]], [[np.inf]],
                  [[1.0, -np.inf]], [[1.0, complex(0.0, np.nan)]])
    for decompose in (svd_spectrum, spectral_norm):
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                decompose(bad)


def test_spectrum_csv(tmp_path):
    spec = svd_spectrum(si_matrix(generate_interleaved(2, 1), 1.0))
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,sigma"
    assert lines[1].startswith("1,1.7207592200")
    assert lines[2].startswith("2,0.3874258867")
    assert float(lines[1].split(",")[1]) == spec.sigmas[0]


def test_spectral_norm_cli_sweep_exits_2_on_non_finite_channel(tmp_path, capsys):
    # covers si_matrix's rho check, which rejects an infinite rho before any entry is built
    code = cli_main(["sweep", "--family", "nested", "--rule", "quadratic", "--n-min", "10",
                     "--n-max", "10", "--rho", "inf", "-o", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("m.csv", "1.0,inf\n0.5,2.0\n"),
        ("m.json", "[[[1.0, 0.0], [NaN, 0.0]], [[0.5, 0.0], [2.0, 0.0]]]\n"),
    ],
)
def test_svd_cli_matrix_file_with_non_finite_entry_exits_2(tmp_path, capsys, name, text):
    mat = tmp_path / name
    mat.write_text(text)
    assert cli_main(["svd", "--matrix", str(mat), "-o", str(tmp_path / "s.csv")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_spectral_norm_same_for_int_float_and_zero_imaginary_inputs():
    as_int = np.array([[3, -1, 2], [0, 5, -4], [7, 1, 1]])
    want = spectral_norm(as_int)
    for same in (as_int.astype(float), as_int.astype(complex), as_int.tolist()):
        assert spectral_norm(same) == want
    # integer-grid channels are stored as float64
    h = si_matrix(generate_interleaved(7, 3), 1.0).h
    assert h.dtype == np.float64
    assert spectral_norm(h) == spectral_norm(h.real.copy())


def test_spectral_norm_complex_path_matches_closed_form():
    for rho, delta2 in ((1.0, 1), (0.37, 4), (2.5, 9)):
        want = interleaved_closed_form_n2(rho, delta2)[0]
        h = si_matrix(generate_interleaved(2, delta2), rho).h
        assert abs(spectral_norm(h) - want) <= 1e-12 * want
        # a unit-modulus phase keeps the singular values but makes every entry complex
        rotated = h * np.exp(0.3j)
        assert np.all(rotated.imag != 0)
        assert abs(spectral_norm(rotated) - want) <= 1e-12 * want


@settings(max_examples=150, deadline=None)
@given(rational_layouts(), st.floats(0.1, 2.0))
def test_spectral_norm_matches_gram_eigenvalue_oracle(layout, rho):
    channel = si_matrix(layout, rho)
    oracle = math.sqrt(float(np.linalg.eigvalsh(channel.h.conj().T @ channel.h)[-1]))
    got = spectral_norm(channel)
    assert abs(got - oracle) <= 1e-12 * oracle


def spectrum_channels():
    """Integer-grid channels of the three families under both rules, and
    complex ones: the 1/3-scaled nested layouts and phase-rotated copies."""
    cases = []
    for fam in ("partitioned", "interleaved", "nested"):
        for rule in ("linear", "quadratic"):
            for n in (10, 60, 150):
                layout = build_family_layout(fam, n, ApertureRule(kind=rule).target(n))[0]
                cases.append(pytest.param(si_matrix(layout, 0.61).h, id=f"{fam}-{rule}-{n}"))
    for n in (10, 60, 150):
        layout = build_family_layout("nested", n, ApertureRule(kind="linear").target(n))[0]
        thirds = FullDuplexLayout(tx=layout.tx.scaled(Fraction(1, 3)), rx=layout.rx.scaled(Fraction(1, 3)))
        cases.append(pytest.param(si_matrix(thirds, 0.61).h, id=f"nested_thirds-{n}"))
        cases.append(pytest.param(si_matrix(layout, 0.61).h * np.exp(0.3j), id=f"nested-rotated-{n}"))
    return cases


@pytest.mark.parametrize("h", spectrum_channels())
def test_svd_spectrum_matches_complex_factorisation(h):
    want = np.linalg.svd(h, full_matrices=False, compute_uv=False)
    spec = svd_spectrum(h)
    assert np.max(np.abs(spec.sigmas - want)) <= 1e-12 * want[0]
    assert abs(spec.frob - np.linalg.norm(h)) <= 1e-12 * spec.frob
    assert spec.recon_error <= 1e-12 * spec.sigmas[0]


@contextlib.contextmanager
def lapack_calls(skew=1.0):
    """Record (name, dtype) of every `np.linalg.svd` and `np.linalg.eigvalsh`
    call in the block, scaling the value of largest magnitude each returns
    by ``skew``."""
    calls = []

    def patched(name, call):
        def wrapper(a, *args, **kwargs):
            calls.append((name, a.dtype))
            values = call(a, *args, **kwargs).copy()
            values[np.argmax(np.abs(values))] *= skew
            return values
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("svd", "eigvalsh"):
            mp.setattr(np.linalg, name, patched(name, getattr(np.linalg, name)))
        yield calls


def test_exactly_real_channels_are_factored_in_real_arithmetic():
    layout = generate_interleaved(7, 3)
    real = si_matrix(layout, 1.0).h
    assert real.dtype == np.float64
    # Tx mirrors Rx, so the real channel takes the symmetric eigensolver; a
    # real channel of an unmirrored layout takes the real SVD
    unmirrored = si_matrix(FullDuplexLayout(tx=[0, 1, 2, 5], rx=[7, 8, 10, 13]), 1.0).h
    assert unmirrored.dtype == np.float64
    cases = ((real, ("eigvalsh", np.float64)), (unmirrored, ("svd", np.float64)),
             (real * np.exp(0.3j), ("svd", np.complex128)))
    for h, call in cases:
        with lapack_calls() as seen:
            spec, sigma1 = svd_spectrum(h), spectral_norm(h)
        assert seen == [call, call]
        assert abs(sigma1 - spec.sigmas[0]) <= 1e-12 * sigma1
    # the same values whatever the container of an exactly real matrix
    want = svd_spectrum(real.real.copy()).sigmas
    for same in (real, real.astype(complex), real.real.tolist()):
        with lapack_calls() as seen:
            assert np.array_equal(svd_spectrum(same).sigmas, want)
        assert seen == [("eigvalsh", np.float64)]


@pytest.mark.parametrize(
    "h, want",
    [
        (np.diag([3.0, -2.0]), [3.0, 2.0]),
        ([[0.0, -5.0], [2.0, 0.0]], [5.0, 2.0]),
        ([[0.0, 1.5], [0.0, 0.0], [-4.0, 0.0]], [4.0, 1.5]),
        ([[0.0, 3 + 4j], [-2j, 0.0]], [5.0, 2.0]),
        (np.zeros((3, 4)), [0.0, 0.0, 0.0]),
    ],
    ids=["diagonal", "scaled-permutation", "zero-row", "complex-permutation", "zero"],
)
def test_one_nonzero_per_row_and_column_gives_exact_singular_values(h, want):
    assert svd_spectrum(h).sigmas.tolist() == want
    assert spectral_norm(h) == want[0]


@pytest.mark.parametrize("n", [10, 100, 300])
def test_spectral_norm_is_the_spectrum_sigma1_bit_for_bit(n):
    layouts = []
    for fam in ("partitioned", "interleaved", "nested"):
        for rule in ("linear", "quadratic"):
            layouts.append(build_family_layout(fam, n, ApertureRule(kind=rule).target(n))[0])
    nested = layouts[-2]  # linear rule, as the analyze workload scales it
    layouts.append(FullDuplexLayout(tx=nested.tx.scaled(Fraction(1, 3)), rx=nested.rx.scaled(Fraction(1, 3))))
    for layout in layouts:
        h = si_matrix(layout, 0.61)
        assert spectral_norm(h) == svd_spectrum(h).sigmas[0]


@pytest.mark.parametrize("h", spectrum_channels())
def test_svd_spectrum_matches_factored_reference(h):
    u, s, vh = factored_svd(h)
    assert np.max(np.abs(h - (u * s) @ vh)) <= 1e-12 * s[0]
    assert np.max(np.abs(svd_spectrum(h).sigmas - s)) <= 1e-12 * s[0]


@pytest.mark.parametrize("h", spectrum_channels())
def test_recon_error_flags_a_perturbed_sigma1(h):
    # every real channel here has Tx mirroring Rx and takes the symmetric eigensolver
    with lapack_calls(skew=1 + 1e-6) as seen:
        spec = svd_spectrum(h)
    assert seen == [("eigvalsh", np.float64) if np.isrealobj(h) else ("svd", np.complex128)]
    assert spec.recon_error > 1e-9 * spec.sigmas[0]


@st.composite
def mirrored_layouts(draw):
    """Integer layouts with Tx = c - Rx for a c that puts no Tx on an Rx antenna."""
    rx = draw(st.sets(st.integers(0, 60), min_size=2, max_size=25))
    sums = {a + b for a in rx for b in rx}
    c = draw(st.sampled_from([c for c in range(-10, 131) if c not in sums]))
    return FullDuplexLayout(tx=[c - r for r in rx], rx=rx)


@st.composite
def square_layouts(draw):
    """Integer layouts with as many Tx as Rx antennas, at positions drawn independently."""
    n = draw(st.integers(2, 25))
    tx = draw(st.sets(st.integers(0, 60), min_size=n, max_size=n))
    rx = draw(st.sets(st.integers(0, 60).filter(lambda p: p not in tx), min_size=n, max_size=n))
    return FullDuplexLayout(tx=tx, rx=rx)


@st.composite
def symmetric_matrices(draw):
    """A caller's random real symmetric matrix, or its row reversal."""
    n = draw(st.integers(2, 40))
    b = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, n))
    s = b + b.T
    return s[::-1] if draw(st.booleans()) else s


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just("mirrored"), mirrored_layouts()),
    st.tuples(st.just("square"), square_layouts()),
    st.tuples(st.just("symmetric"), symmetric_matrices()),
))
def test_mirrored_and_symmetric_inputs_take_the_symmetric_eigensolver(case):
    kind, x = case
    if kind == "symmetric":
        h, symmetric = x, True
    else:
        h = si_matrix(x, 0.61).h
        # on the integer grid the entries ±rho/d are equal exactly where the distances are
        d = np.abs(np.subtract.outer(np.array(x.rx.positions), np.array(x.tx.positions)))
        symmetric = any(np.array_equal(m, m.T) for m in (d, d[::-1]))
        assert symmetric or kind == "square"
    want = np.linalg.svd(h, compute_uv=False)
    with lapack_calls() as seen:
        sigmas, sigma1 = svd_spectrum(h).sigmas, spectral_norm(h)
    assert seen == [("eigvalsh" if symmetric else "svd", np.float64)] * 2
    assert np.max(np.abs(sigmas - want)) <= 1e-12 * want[0]
    assert sigma1 == sigmas[0]
