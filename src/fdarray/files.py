"""Every file format fdarray reads or writes: the one module that opens files.

Files are UTF-8 text with ``\\n`` line ends; layouts and matrices are read
back, and results are written as CSV tables with one header line.
"""

import json
import os
import re
from fractions import Fraction

import numpy as np

from .beampattern import BeampatternCurve
from .coarray import CoarrayScalingTable, SumCoarray
from .experiments import Fig2Study, SweepResult
from .geometry import FullDuplexLayout
from .si_model import as_matrix
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

    def num(p: Fraction):
        return int(p) if p.denominator == 1 else float(p)

    return {
        "label": layout.label,
        "tx": [num(p) for p in layout.tx.positions],
        "rx": [num(p) for p in layout.rx.positions],
        "units": GEOMETRY_UNITS,
    }


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

    Decimal position values are parsed as exact decimal fractions, so
    ``0.5`` loads as the rational 1/2 rather than a float.
    """
    return layout_from_dict(json.loads(_read_text(path), parse_float=Fraction, parse_int=Fraction))


def _complex_cell(z: complex) -> str:
    re_part, im_part = float(z.real), float(z.imag)
    if im_part < 0 or (im_part == 0 and np.signbit(im_part)):
        return f"{re_part!r}-{abs(im_part)!r}i"
    return f"{re_part!r}+{im_part!r}i"


# matches the trailing "<signed float>i" part of an "a+bi" cell
_IM_RE = re.compile(r"^(?P<re>.+?)(?P<im>[+-][^+-]*(?:[eE][+-]?\d+)?)i$")


def _parse_cell(cell: str) -> complex:
    cell = cell.strip()
    if cell.endswith("i"):
        m = _IM_RE.match(cell)
        if not m:
            raise ValueError(f"malformed complex cell {cell!r}")
        return complex(float(m.group("re")), float(m.group("im")))
    return complex(float(cell), 0.0)


def write_matrix_csv(matrix, path) -> None:
    """Write a matrix as CSV: plain values when real, 'a+bi' cells otherwise."""
    arr = as_matrix(matrix)
    if np.iscomplexobj(arr) and arr.imag.any():
        cell = _complex_cell
    else:
        arr, cell = arr.real.astype(float, copy=False), repr
    _write_lines(path, (",".join(map(cell, row)) for row in arr.tolist()))


def load_matrix_csv(path) -> np.ndarray:
    """Load a matrix written by `write_matrix_csv`.

    Returns a float matrix when no cell carries an imaginary part, a
    complex matrix otherwise.
    """
    lines = [line for line in _read_text(path).split("\n") if line.strip()]
    rows = [[_parse_cell(c) for c in line.split(",")] for line in lines]
    if not rows:
        raise ValueError(f"no matrix rows found in {path}")
    arr = np.array(rows, dtype=complex)
    return arr if arr.imag.any() else arr.real.copy()


def write_matrix_json(matrix, path) -> None:
    """Write a matrix as nested JSON arrays of [re, im] pairs."""
    arr = as_matrix(matrix, complex)
    _write_lines(path, [json.dumps(np.stack((arr.real, arr.imag), -1).tolist())])


def load_matrix_json(path) -> np.ndarray:
    """Load a complex matrix from nested [re, im] JSON arrays."""
    data = json.loads(_read_text(path))
    try:
        rows = [[complex(c[0], c[1]) for c in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed matrix document in {path}: {exc}") from exc
    return as_matrix(rows)


def write_spectrum_csv(spec: SingularSpectrum, path) -> None:
    """Write (index, sigma) rows, index starting at 1."""
    rows = (f"{i},{sigma!r}" for i, sigma in enumerate(spec.sigmas.tolist(), start=1))
    _write_lines(path, rows, header="index,sigma")


def write_curve_csv(curve: BeampatternCurve, path) -> None:
    """Write (theta, B) rows with B the gain in dB."""
    rows = (f"{theta!r},{gain!r}" for theta, gain in zip(curve.thetas.tolist(), curve.gains_db.tolist()))
    _write_lines(path, rows, header="theta,B")


def _fmt_sum(value: int | Fraction) -> str:
    return str(int(value)) if value.denominator == 1 else repr(float(value))


def write_coarray_csv(coarray: SumCoarray, path) -> None:
    """Write (sum, multiplicity) rows in ascending sum order."""
    rows = (f"{_fmt_sum(s)},{m}" for s, m in zip(coarray.sums, coarray.multiplicities))
    _write_lines(path, rows, header="sum,multiplicity")


def write_scaling_csv(table: CoarrayScalingTable, path) -> None:
    """Write (N, contiguous_len, L) rows."""
    rows = (f"{row.n},{row.contiguous_len},{row.aperture}" for row in table.rows)
    _write_lines(path, rows, header="N,contiguous_len,L")


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
