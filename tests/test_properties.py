"""Property tests of the exact core on random small rational layouts.

Every check compares against a reference built here or in ``oracles.py``
from per-entry ``Fraction`` arithmetic, never against the code under test.
"""

from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import enumerate_sum_coarray, fraction_distances

from fdarray.coarray import sum_coarray
from fdarray.experiments import coarray_scaling
from fdarray.geometry import FullDuplexLayout, generate_nested
from fdarray.si_model import distance_matrix, is_toeplitz, si_matrix, sign_pattern

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def rational_layouts(draw):
    """Up to 12 antennas per side, denominators 1..12, integer offset up to 1e6."""
    q_max = draw(st.integers(1, 12))
    position = st.builds(Fraction, st.integers(0, 10 * q_max), st.integers(1, q_max))
    tx = draw(st.sets(position, min_size=1, max_size=12))
    rx = draw(st.sets(position, min_size=1, max_size=12))
    assume(not tx & rx)
    offset = draw(st.integers(0, 10**6))
    return FullDuplexLayout(tx=[p + offset for p in tx], rx=[p + offset for p in rx])


def reference_sign_pattern(layout) -> str:
    """Sign class of rho*exp(j*pi*d)/d from the exact distances alone."""
    d = [x for row in fraction_distances(layout) for x in row]
    if any(x.denominator != 1 for x in d):
        return "complex"
    parities = {int(x) % 2 for x in d}
    return "uniform" if len(parities) == 1 else "alternating"


def reference_toeplitz(layout) -> bool:
    d = fraction_distances(layout)
    return all(
        d[i][j] == d[i - 1][j - 1] for i in range(1, len(d)) for j in range(1, len(d[0]))
    )


def reference_entry(d: Fraction, rho: float) -> complex:
    df = float(d)
    if d.denominator == 1:
        return complex((-1) ** int(d) * rho / df, 0.0)
    return complex(rho * np.exp(1j * np.pi * df) / df)


def same_bits(a, b) -> bool:
    return np.complex128(a).tobytes() == np.complex128(b).tobytes()


@SETTINGS
@given(rational_layouts())
def test_sum_coarray_matches_enumeration(layout):
    co = sum_coarray(layout)
    sums, mults, run = enumerate_sum_coarray(layout.tx.positions, layout.rx.positions)
    assert list(co.sums) == sums
    assert list(co.multiplicities) == mults
    assert co.contiguous_len == run


@SETTINGS
@given(rational_layouts(), st.floats(0.1, 2.0))
def test_structure_checks_match_fraction_reference(layout, rho):
    assert sign_pattern(si_matrix(layout, rho)) == reference_sign_pattern(layout)
    assert is_toeplitz(distance_matrix(layout)) == reference_toeplitz(layout)


@SETTINGS
@given(rational_layouts(), st.floats(0.1, 2.0))
def test_si_entries_match_per_entry_formula_bitwise(layout, rho):
    h = si_matrix(layout, rho).h
    for n, row in enumerate(fraction_distances(layout)):
        for m, d in enumerate(row):
            assert same_bits(h[n, m], reference_entry(d, rho)), (n, m, d)


def test_half_integer_positions_with_integer_sums_keep_contiguity():
    # every position has denominator 2, every sum is an integer
    co = sum_coarray(FullDuplexLayout(tx=[Fraction(1, 2)], rx=[Fraction(3, 2)]))
    assert co.sums == (2,) and co.contiguous_len == 1
    lay = FullDuplexLayout(tx=[Fraction(1, 2), Fraction(3, 2)], rx=[Fraction(5, 2), Fraction(7, 2)])
    co = sum_coarray(lay)
    assert co.sums == (3, 4, 5)
    assert co.multiplicities == (1, 2, 1)
    assert co.contiguous_len == 3 == enumerate_sum_coarray(lay.tx, lay.rx)[2]


def test_coarray_agrees_with_enumeration_beyond_criterion_7():
    table = coarray_scaling([190, 250, 300, 400])
    for row in table.rows:
        lay = generate_nested(row.m1, row.m2, row.delta3)
        tx, rx = [int(p) for p in lay.tx], [int(p) for p in lay.rx]
        sums, mults, run = enumerate_sum_coarray(tx, rx)
        co = sum_coarray(lay)
        assert list(co.sums) == sums
        assert list(co.multiplicities) == mults
        assert co.contiguous_len == run == row.contiguous_len
