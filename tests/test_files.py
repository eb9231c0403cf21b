"""The public names, the co-array scaling rows, and matrix-file properties.

The matrix writers format each distinct value once; the properties check
their bytes against ``oracles.py``'s per-cell rendering and their round
trips bit for bit.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_matrix_csv, reference_matrix_json

import fdarray
from fdarray import files
from fdarray.experiments import coarray_scaling
from fdarray.files import (
    load_matrix_csv,
    load_matrix_json,
    write_matrix_csv,
    write_matrix_json,
)
from fdarray.si_model import numeric_matrix

# fdarray.__all__: 51 names (the test oracle interleaved_closed_form_n2,
# si_leakage, a bare matrix-vector product, and write_scaling_csv, which no
# command wrote, are no longer public)
PUBLIC_NAMES = {
    "ApertureRule", "ArrayGeometry", "BeampatternCurve", "CoarrayScalingTable",
    "ColocatedAntennaError", "DistanceMatrix", "Fig2Study", "FullDuplexLayout",
    "MainLobeWidth", "SIChannelMatrix", "SingularSpectrum", "SumCoarray", "SweepResult",
    "SweepRow", "ValidationReport", "array_factor", "ascii_sketch", "beampattern",
    "build_family_layout", "coarray_scaling", "distance_matrix", "effective_rank",
    "fig2_study", "generate_interleaved", "generate_nested", "generate_partitioned",
    "grating_lobes", "is_toeplitz", "layout_from_dict", "layout_to_dict", "load_layout",
    "load_matrix_csv", "load_matrix_json", "loglog_slope", "main_lobe_width",
    "partitioned_rank1_gap", "save_layout", "scaling_sweep", "si_matrix", "sign_pattern",
    "spectral_norm", "sum_coarray", "svd_spectrum", "validate",
    "write_coarray_csv", "write_curve_csv", "write_fig2_bundle", "write_matrix_csv",
    "write_matrix_json", "write_spectrum_csv", "write_sweep_csv",
}


def test_public_names_are_unchanged():
    assert set(fdarray.__all__) == PUBLIC_NAMES
    assert len(fdarray.__all__) == len(PUBLIC_NAMES) == 51
    # every reader and writer is exported from the one files module
    io_names = [n for n in fdarray.__all__ if n.startswith(("load_", "save_", "write_", "layout_"))]
    assert len(io_names) == 13
    assert all(getattr(fdarray, n) is getattr(files, n) for n in io_names)


def test_coarray_scaling_rows():
    rows = [(row.n, row.contiguous_len, row.aperture) for row in coarray_scaling(range(10, 61, 10)).rows]
    assert rows == [(10, 29, 19), (20, 179, 102), (30, 389, 214), (40, 759, 407), (50, 1149, 609), (60, 1739, 912)]


SETTINGS = settings(max_examples=200, deadline=None)
# the dtypes of test_si_model.py::test_matrix_csv_cells_of_every_dtype, plus float64 and complex128
DTYPES = ("int64", "bool", "float32", "complex64", "float64", "complex128")
# signed zeros, infinities, NaN and subnormals of both widths
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-45, -1.5)


def entries(dtype, finite):
    if dtype == "bool":
        return st.booleans()
    if dtype == "int64":
        return st.integers(-(2**63), 2**63 - 1)
    special = [x for x in SPECIAL_FLOATS if math.isfinite(x) or not finite]
    width = 32 if dtype in ("float32", "complex64") else 64
    real = st.one_of(
        st.sampled_from(special),
        st.floats(width=width, allow_nan=not finite, allow_infinity=not finite),
    )
    return st.builds(complex, real, real) if dtype.startswith("complex") else real


@st.composite
def matrices(draw, dtypes=DTYPES, finite=False):
    """Matrices of 1xk, kx1 or general shape, drawn from a pool of at most
    size values: a small pool repeats entries heavily, a full one rarely."""
    dtype = draw(st.sampled_from(dtypes))
    shape = draw(st.one_of(
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.just(1)),
        st.tuples(st.integers(1, 9), st.integers(1, 9)),
    ))
    size = shape[0] * shape[1]
    pool = draw(st.lists(entries(dtype, finite), min_size=1, max_size=size))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=size, max_size=size))
    return np.array([pool[i] for i in picks], dtype=dtype).reshape(shape)


@SETTINGS
@given(matrices())
def test_matrix_writers_match_per_cell_rendering(m):
    with tempfile.TemporaryDirectory() as d:
        csv_path, json_path = Path(d, "m.csv"), Path(d, "m.json")
        write_matrix_csv(m, csv_path)
        write_matrix_json(m, json_path)
        assert csv_path.read_bytes() == reference_matrix_csv(m).encode()
        assert json_path.read_bytes() == reference_matrix_json(m).encode()


@SETTINGS
@given(matrices())
def test_matrix_csv_is_complex_exactly_when_numeric_matrix_is(m):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d, "m.csv")
        write_matrix_csv(m, path)
        cells = path.read_text().replace("\n", ",").split(",")[:-1]
    # a real cell never ends in "i", not even "inf"
    assert {cell.endswith("i") for cell in cells} == {np.iscomplexobj(numeric_matrix(m))}


@SETTINGS
@given(matrices(dtypes=("float64", "complex128"), finite=True))
def test_matrix_files_round_trip_bit_exact(m):
    # a CSV file is complex exactly when some entry has a nonzero imaginary part
    want_csv = m if m.imag.any() else m.real
    want_json = m.astype(complex)
    with tempfile.TemporaryDirectory() as d:
        csv_path, json_path = Path(d, "m.csv"), Path(d, "m.json")
        write_matrix_csv(m, csv_path)
        write_matrix_json(m, json_path)
        for got, want in ((load_matrix_csv(csv_path), want_csv), (load_matrix_json(json_path), want_json)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_matrix_csv_mixed_cells_and_ragged_rows(tmp_path):
    path = tmp_path / "m.csv"
    # plain cells among "a+bi" cells load as complex
    path.write_text("1.0,2.5-0.5i\n1.0, 2.5-0.5i \n")
    got = load_matrix_csv(path)
    assert got.dtype == complex and got.tolist() == [[1.0, 2.5 - 0.5j]] * 2
    path.write_text("2i,-1e-05-infi\n")
    assert load_matrix_csv(path).tolist() == [[2j, complex(-1e-05, -np.inf)]]
    path.write_text("1.0,1+2ii\n")
    with pytest.raises(ValueError, match="malformed complex cell '1\\+2ii'"):
        load_matrix_csv(path)
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="unequal length"):
        load_matrix_csv(path)
