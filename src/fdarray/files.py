"""Every file format fdarray reads or writes: the one module that opens files.

Files are UTF-8 text with ``\\n`` line ends; layouts and matrices are read
back, and results are written as CSV tables with one header line.

Matrix files cost time in proportion to their distinct values, not their
entries: the writers format each distinct float64 bit pattern once and the
CSV reader parses each distinct cell text once. An SI matrix, Toeplitz or
mirror-symmetric, holds O(N) distinct values among its N² entries. When
more than half the entries are distinct, the writers format every entry
row by row instead, which is then the faster way.

Whether a matrix CSV file holds plain or "a+bi" cells is decided by
`si_model.numeric_matrix`, the rule spectra and sign patterns take too. A
matrix JSON file stores every entry's raw (re, im) pair, so its complex
dtype and -0.0 imaginary parts round-trip exactly.
"""

import json
import os
import sys
from fractions import Fraction

import numpy as np

from .beampattern import BeampatternCurve
from .coarray import SumCoarray
from .experiments import Fig2Study, SweepResult
from .geometry import FullDuplexLayout, parse_position
from .si_model import as_matrix, numeric_matrix
from .spectral import SingularSpectrum

GEOMETRY_UNITS = "half-wavelength"


def _write_lines(path, lines, header=None) -> None:
    """Write ``header`` (when given) and then ``lines``, each ended by "\\n"."""
    lines = list(lines) if header is None else [header, *lines]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if lines:
            fh.write("\n".join(lines) + "\n")


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def layout_to_dict(layout: FullDuplexLayout) -> dict:
    """JSON-ready mapping: integer positions stay integers, others decay to float."""

    def numbers(g):  # int / int is correctly rounded, like float(Fraction)
        return g.ticks.tolist() if g.denom == 1 else [t / g.denom for t in g.ticks.tolist()]

    return {"label": layout.label, "tx": numbers(layout.tx), "rx": numbers(layout.rx), "units": GEOMETRY_UNITS}


def layout_from_dict(data: dict) -> FullDuplexLayout:
    """Build a layout from its mapping form.

    ``tx`` and ``rx`` must be lists. The `FullDuplexLayout` constructor
    validates their positions: an empty side or a duplicate position
    raises ValueError, a colocated Tx/Rx pair raises ColocatedAntennaError.
    """
    if not isinstance(data, dict):
        raise ValueError("geometry document must be a JSON object")
    for key in ("tx", "rx"):
        if key not in data:
            raise ValueError(f"geometry document is missing the '{key}' field")
        if not isinstance(data[key], list):
            raise ValueError(f"geometry field '{key}' must be a list of positions")
    units = data.get("units", GEOMETRY_UNITS)
    if units != GEOMETRY_UNITS:
        raise ValueError(f"unsupported units {units!r}; expected {GEOMETRY_UNITS!r}")
    return FullDuplexLayout(tx=data["tx"], rx=data["rx"], label=str(data.get("label", "")))


def save_layout(layout: FullDuplexLayout, path) -> None:
    """Write the layout JSON document (see `layout_to_dict`)."""
    _write_lines(path, [json.dumps(layout_to_dict(layout), indent=2)])


def load_layout(path) -> FullDuplexLayout:
    """Load and validate a layout JSON document (see `layout_from_dict`).

    Integers load as ``int``. Other numbers are parsed as exact decimal
    fractions by `parse_position`, so ``0.5`` loads as 1/2 rather than a
    float, and a huge exponent such as ``1e999999999`` raises ValueError,
    as does an integer longer than `int` reads (4300 digits by default).
    """

    def parse_int(text: str) -> int:
        try:
            return int(text)
        except ValueError:  # json passes only digit strings: past int()'s digit limit
            raise ValueError(
                f"{path}: an integer position has more than {sys.get_int_max_str_digits()} digits;"
                " positions must fit int64 ticks below 2**62"
            ) from None

    return layout_from_dict(json.loads(_read_text(path), parse_float=parse_position, parse_int=parse_int))


def _complex_cell(z: complex) -> str:
    re_part, im_part = float(z.real), float(z.imag)
    if im_part < 0 or (im_part == 0 and np.signbit(im_part)):
        return f"{re_part!r}-{abs(im_part)!r}i"
    return f"{re_part!r}+{im_part!r}i"


def _json_cell(z: complex) -> str:
    return json.dumps([z.real, z.imag])


def _parse_cell(cell: str) -> complex:
    """The value of a plain or an "a+bi" cell; `complex` reads "a+bi" as "a+bj"."""
    cell = cell.strip()
    if cell.endswith("i"):
        try:
            return complex(cell[:-1] + "j")
        except ValueError:
            raise ValueError(f"malformed complex cell {cell!r}") from None
    return complex(float(cell), 0.0)


def _entry_texts(arr: np.ndarray, cell):
    """``cell`` of every entry of a float64 or complex128 matrix, as row lists.

    One sort over the float64 bit patterns of each entry's real part, and
    imaginary part when complex (-0.0 is not 0.0), groups equal entries;
    each group is formatted once. An SI matrix holds O(N) distinct values
    among its N² entries. Returns None when more than half the entries are
    distinct: sorting and holding every text at once then costs more than
    it saves (a quarter more time for CSV, two to three times as much for
    JSON, on all-distinct 300x300 matrices).
    """
    parts = (arr.imag, arr.real) if np.iscomplexobj(arr) else (arr,)
    keys = [part.view(np.uint64).ravel() for part in parts]
    order = np.lexsort(keys) if len(keys) > 1 else np.argsort(keys[0])
    starts = np.ones(order.size, dtype=bool)
    ranked = [k[order] for k in keys]
    starts[1:] = np.any([r[1:] != r[:-1] for r in ranked], axis=0)
    if 2 * np.count_nonzero(starts) > order.size:
        return None
    index = np.empty_like(order)
    index[order] = np.cumsum(starts) - 1
    texts = np.array(list(map(cell, arr.ravel()[order[starts]].tolist())), dtype=object)
    return texts[index.reshape(arr.shape)].tolist()


def write_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV: plain values when `si_model.numeric_matrix`
    makes it float64, 'a+bi' cells when it makes it complex128."""
    arr = numeric_matrix(matrix)
    cell = _complex_cell if np.iscomplexobj(arr) else repr
    texts = _entry_texts(arr, cell)
    if texts is None:
        _write_lines(path, (",".join(map(cell, row)) for row in arr.tolist()))
    else:
        _write_lines(path, map(",".join, texts))


def load_matrix_csv(path) -> np.ndarray:
    """Load a matrix written by `write_matrix_csv`.

    Returns the cells as `si_model.numeric_matrix` makes them: float64 when
    no cell carries a nonzero imaginary part, complex128 otherwise. Each
    distinct cell text is parsed once, a plain cell by `float` and an "a+bi"
    cell by `complex` as "a+bj", so a cell "bi" with no real part reads as
    0+bi. A cell that is neither raises ValueError naming the file.
    """
    lines = [line for line in _read_text(path).split("\n") if line.strip()]
    if not lines:
        raise ValueError(f"no matrix rows found in {path}")
    if len({line.count(",") for line in lines}) > 1:
        raise ValueError(f"matrix rows of unequal length in {path}")
    cells = ",".join(lines).split(",")
    distinct = dict.fromkeys(cells)
    try:
        # float() rejects every "a+bi" cell
        values, dtype = list(map(float, distinct)), float
    except ValueError:
        try:
            values, dtype = list(map(_parse_cell, distinct)), complex
        except ValueError as exc:
            raise ValueError(f"malformed matrix cell in {path}: {exc}") from exc
    if len(values) < len(cells):
        values = list(map(dict(zip(distinct, values)).__getitem__, cells))
    return numeric_matrix(np.array(values, dtype=dtype).reshape(len(lines), -1))


def write_matrix_json(matrix, path) -> None:
    """Write a matrix as nested JSON arrays of [re, im] pairs."""
    arr = as_matrix(matrix, complex)
    texts = _entry_texts(arr, _json_cell)
    if texts is None:
        text = json.dumps(np.stack((arr.real, arr.imag), -1).tolist())
    else:
        text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in texts) + "]"
    _write_lines(path, [text])


def load_matrix_json(path) -> np.ndarray:
    """Load a complex matrix from nested [re, im] JSON arrays.

    Every cell must be a two-element list of numbers, not bools, and the
    document must hold at least one; anything else raises ValueError naming
    the file.
    """
    text = _read_text(path)
    data = json.loads(text)
    # unpacking takes two items and complex(re, im) rejects every non-number
    # but a bool, which JSON spells true or false
    bools = "true" in text or "false" in text
    del text  # not held while the rows are built
    try:
        if bools:
            raise TypeError("a cell holds true or false, not a number")
        arr = as_matrix([[complex(re, im) for re, im in row] for row in data])
        if not arr.size:
            raise ValueError("no matrix cell")
        return arr
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix document in {path}: {exc}") from exc


def write_spectrum_csv(spec: SingularSpectrum, path) -> None:
    """Write (index, sigma) rows, index starting at 1."""
    rows = (f"{i},{sigma!r}" for i, sigma in enumerate(spec.sigmas.tolist(), start=1))
    _write_lines(path, rows, header="index,sigma")


def write_curve_csv(curve: BeampatternCurve, path) -> None:
    """Write (theta, B) rows with B the gain in dB."""
    rows = map(",".join, zip(map(repr, curve.thetas.tolist()), map(repr, curve.gains_db.tolist())))
    _write_lines(path, rows, header="theta,B")


def _fmt_sum(value: int | Fraction) -> str:
    return str(int(value)) if value.denominator == 1 else repr(float(value))


def write_coarray_csv(coarray: SumCoarray, path) -> None:
    """Write (sum, multiplicity) rows in ascending sum order."""
    rows = (f"{_fmt_sum(s)},{m}" for s, m in zip(coarray.sums, coarray.multiplicities))
    _write_lines(path, rows, header="sum,multiplicity")


def _params_str(params) -> str:
    return ";".join(f"{name}={value}" for name, value in params)


def write_sweep_csv(result: SweepResult, path) -> None:
    """Write (N, L, family, spectral_norm, params, feasible) rows."""
    rows = (
        f"{row.n},{row.l_actual},{row.family},{row.spectral_norm!r},"
        f"{_params_str(row.params)},{int(row.feasible)}"
        for row in result.rows
    )
    _write_lines(path, rows, header="N,L,family,spectral_norm,params,feasible")


def write_fig2_bundle(study: Fig2Study, directory) -> list[str]:
    """Write per-family geometry JSON, beampattern CSV and spectrum CSV.

    Returns the list of file paths written.
    """
    os.makedirs(directory, exist_ok=True)
    written = []
    for fam in study.layouts:
        geo_path = os.path.join(directory, f"geometry_{fam}.json")
        save_layout(study.layouts[fam], geo_path)
        curve_path = os.path.join(directory, f"beampattern_{fam}.csv")
        write_curve_csv(study.beampatterns[fam], curve_path)
        spec_path = os.path.join(directory, f"spectrum_{fam}.csv")
        write_spectrum_csv(study.spectra[fam], spec_path)
        written += [geo_path, curve_path, spec_path]
    return written
