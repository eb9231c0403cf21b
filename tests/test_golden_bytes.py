"""Byte pins for CLI outputs across versions.

Each digest is the sha256 of a file written by ``fdarray.cli.main``. The
digests were recorded with the per-entry ``Fraction`` implementation of
distances, channel synthesis and co-arrays, so any later rewrite of those
layers must reproduce its output bytes exactly. The determinism test in
``test_acceptance.py`` (criterion 9) only compares two runs of one version.

The ``GOLDEN`` sweep digests were recorded when `spectral_norm` took σ₁
from the full U, S, V* factorisation in complex arithmetic. It now computes
singular values only, in real arithmetic on integer-grid channels, and σ₁
moves in its last digits (at most 11 ulp over the 120 pinned rows). Those
digests are therefore checked against a reference rendering: the CLI's
sweep rows with every σ₁ taken from the full complex SVD
(`complex_svd_spectrum`), which shows that layout building, synthesis and
the CSV format are byte-unchanged. ``GOLDEN_SWEEP`` pins the CLI ``sweep``
bytes of the σ₁-only code, and every CLI σ₁ must lie within a relative
1e-12 of the full-SVD σ₁.

The ``svd`` digests of the layouts and the ``fig2`` spectra were likewise
recorded when `svd_spectrum` factored every matrix in complex arithmetic.
It now factors exactly real matrices (every integer-grid channel) in real
arithmetic, and their singular values move in the last digits. Those
digests are checked against reference renderings whose spectra come from
`complex_svd_spectrum`; `tests/test_spectral.py` holds the real path's
singular values to 1e-12·σ₁ of the complex ones.

The ``GOLDEN_CURVES`` digests (``beampattern`` CSVs and the ``fig2``
bundle) were recorded when `array_factor` summed one complex exponential
per angle and float position. It now works on exact integer ticks with
matrix products (see `fdarray.beampattern`), and the gains move in their
last digits. Those digests are therefore checked against a reference
rendering: the same curves with magnitudes from
`oracles.direct_array_factor`, the old formula, which shows that the angle
grid, the dB conversion, the CSV format and the rest of the ``fig2`` bundle
are byte-unchanged. ``GOLDEN_CURVES_TICKS`` pins the CLI bytes of the
tick-based code whose baby steps were sines and cosines of every b < B.
`array_factor` now builds its phases by running products, and the gains of
every layout with B > 1 move in their last digits. Those digests are checked
against a reference rendering with magnitudes from
`oracles.sincos_array_factor`, a copy of the sine/cosine split.
`tests/test_beampattern.py` holds the magnitudes to 1e-11 per element of the
re-centred direct sum.

``GOLDEN_MOVED`` pins the CLI bytes of exactly the files that the real-path
`svd_spectrum` and the running-product phases moved; every other file keeps
its pin in ``GOLDEN``, ``GOLDEN_CURVES_TICKS`` or ``GOLDEN_SWEEP``.

``GOLDEN_VALUES`` pins the CLI bytes of the spectrum files that the
values-only `svd_spectrum` moved: the ``svd`` outputs of every layout and the
three ``fig2`` spectra. `svd_spectrum` used to compute U and V and report
the max-abs residual of U S V*; it now takes its values from the same
values-only LAPACK call as `spectral_norm`, and they move in their last
digits. The ``GOLDEN`` and ``GOLDEN_MOVED`` spectrum pins are checked
against a rendering whose spectra come from the full U, S, V* factorisation
that `svd_spectrum` ran before (`oracles.factored_svd`, real arithmetic on
exactly real matrices); `tests/test_spectral.py` holds the values to
1e-12·σ₁ of that factorisation's.

``GOLDEN_RUNS`` pins the CLI bytes of the curve files that the run form of
`array_factor` moved: every ``beampattern`` CSV and the three ``fig2``
beampattern CSVs. Each side of these layouts is now a sum of one or two
Dirichlet kernels (4 and 10 runs for the decimal sides of
``nested_thirds_roundtrip``), and `beampattern` takes the magnitude of the
re-centred sum without its common phase. The ``GOLDEN_MOVED`` curve pins,
with the rest of ``GOLDEN_CURVES_TICKS``, are checked against a rendering
with magnitudes from `oracles.running_product_array_factor`, a copy of the
running-product split that the run form replaced. The run-form bytes, like
every curve pin, depend on numpy's float64 ``np.sin``. On the x86-64 Xeon the
pins were taken on (AVX-512 available), numpy 2.4.6 does not vectorise it:
it matched glibc's ``sin`` bit for bit on 200000 random arguments, so the
pins follow the libm rather than a SIMD kernel.

The ``si`` and ``coarray`` digests and the direct-sum curves involve no
BLAS or LAPACK call and hold everywhere. The bytes of ``svd`` and
``sweep`` outputs, the ``fig2`` spectra and the tick-based curves also
depend on the BLAS/LAPACK build, its CPU kernel and the BLAS thread count:
the commands run in a child interpreter with one BLAS thread, and those
pins, taken with numpy 2.4.6's bundled OpenBLAS 0.3.31 on an x86-64 Xeon,
are checked only under that numpy version.

Print the digests of the code on ``PYTHONPATH`` with::

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import direct_array_factor, factored_svd, running_product_array_factor, sincos_array_factor

import fdarray
from fdarray.beampattern import DB_FLOOR, BeampatternCurve
from fdarray.cli import main as cli_main
from fdarray.experiments import ApertureRule, build_family_layout, fig2_study, scaling_sweep
from fdarray.files import (
    load_layout,
    load_matrix_csv,
    load_matrix_json,
    save_layout,
    write_curve_csv,
    write_spectrum_csv,
    write_sweep_csv,
)
from fdarray.geometry import FullDuplexLayout, generate_nested
from fdarray.si_model import as_matrix, si_matrix
from fdarray.spectral import svd_spectrum

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# LAPACK-dependent pins are checked only with the numpy they were recorded with
LAPACK_PINNED = np.__version__ == "2.4.6"
LAPACK_FILES = ("svd_geometry.csv", "svd_matrix_csv.csv", "svd_matrix_json.csv")
RHO = "0.37"
SWEEP_RHO = "0.61"
SWEEP_NS = range(10, 201, 10)
# prefix of the case that renders a sweep with full-SVD sigma1 (see the docstring)
FULL_SVD = "full-svd:"
# prefixes of the cases that render layout spectra with the complex SVD and
# with the full factorisation; the latter also renders the fig2 spectra
COMPLEX_SVD = "complex-svd:"
FACTORED_SVD = "factored-svd:"
# prefixes of the cases that render beampatterns with an oracle array factor
# (and fig2 spectra with the complex SVD); see the docstring
DIRECT = "direct:"
SINCOS = "sincos:"
SPLIT = "split:"
BEAMPATTERN = "beampattern:"
FIG2 = "fig2"
FIG2_LAPACK_FILES = tuple(f"spectrum_{fam}.csv" for fam in ("partitioned", "interleaved", "nested"))
BP_LAYOUTS = ("nested_integer", "nested_thirds_exact", "nested_thirds_roundtrip")
# beampattern output file -> (side, theta_s, normalized)
BP_RUNS = {
    "bp_rx.csv": ("rx", 0.0, False),
    "bp_tx.csv": ("tx", 0.0, False),
    "bp_rx_steered.csv": ("rx", 0.41, False),
    "bp_tx_normalized_steered.csv": ("tx", -0.73, True),
}


def _moved(layout, scale, offset):
    return FullDuplexLayout(
        tx=layout.tx.scaled(scale).shifted(offset),
        rx=layout.rx.scaled(scale).shifted(offset),
        label=layout.label,
    )


def _write_exact(layout, path):
    """Layout JSON with every position as an exact "p/q" string."""
    doc = {
        "label": layout.label,
        "tx": [str(p) for p in layout.tx.positions],
        "rx": [str(p) for p in layout.rx.positions],
        "units": "half-wavelength",
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


THIRDS = _moved(generate_nested(40, 40, 1), Fraction(1, 2), Fraction(1, 3))

# name -> writer of the geometry file the commands read
LAYOUTS = {
    "nested_integer": lambda path: save_layout(generate_nested(20, 16, 3), path),
    "nested_thirds_exact": lambda path: _write_exact(THIRDS, path),
    "nested_thirds_roundtrip": lambda path: save_layout(THIRDS, path),
    "nested_half_integer": lambda path: save_layout(
        _moved(generate_nested(8, 7, 2), Fraction(1, 2), Fraction(1, 4)), path
    ),
}

SWEEPS = [(fam, rule) for fam in ("partitioned", "interleaved", "nested") for rule in ("linear", "quadratic")]


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run(argv) -> None:
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"exit {code} for {argv}"


def complex_svd_spectrum(matrix):
    """`svd_spectrum` with the singular values of the full U, S, V*
    factorisation in complex arithmetic, even of an exactly real matrix."""
    sigmas = np.linalg.svd(as_matrix(matrix, complex), full_matrices=False)[1]
    return dataclasses.replace(svd_spectrum(matrix), sigmas=sigmas)


def factored_svd_spectrum(matrix):
    """`svd_spectrum` with the singular values of the full U, S, V*
    factorisation, in real arithmetic on an exactly real matrix."""
    return dataclasses.replace(svd_spectrum(matrix), sigmas=factored_svd(as_matrix(matrix))[1])


def layout_digests(name, workdir, spectrum=None) -> dict:
    """Digests of the si (CSV, JSON), svd and coarray outputs of one layout;
    with a ``spectrum`` function the svd outputs are its renderings."""
    d = Path(workdir)
    geo = d / "geometry.json"
    LAYOUTS[name](geo)
    _run(["si", "--geometry", geo, "--rho", RHO, "--format", "csv", "-o", d / "si.csv"])
    _run(["si", "--geometry", geo, "--rho", RHO, "--format", "json", "-o", d / "si.json"])
    if spectrum:
        for f, matrix in (
            ("svd_geometry.csv", si_matrix(load_layout(geo), float(RHO))),
            ("svd_matrix_csv.csv", load_matrix_csv(d / "si.csv")),
            ("svd_matrix_json.csv", load_matrix_json(d / "si.json")),
        ):
            write_spectrum_csv(spectrum(matrix), d / f)
    else:
        _run(["svd", "--geometry", geo, "--rho", RHO, "-o", d / "svd_geometry.csv"])
        _run(["svd", "--matrix", d / "si.csv", "-o", d / "svd_matrix_csv.csv"])
        _run(["svd", "--matrix", d / "si.json", "-o", d / "svd_matrix_json.csv"])
    _run(["coarray", "--geometry", geo, "-o", d / "coarray.csv"])
    files = ("si.csv", "si.json", "svd_geometry.csv", "svd_matrix_csv.csv", "svd_matrix_json.csv", "coarray.csv")
    return {f: _sha(d / f) for f in files}


def sweep_digest(family, rule, workdir) -> str:
    out = Path(workdir) / "sweep.csv"
    _run(["sweep", "--family", family, "--rule", rule, "--n-min", SWEEP_NS.start,
          "--n-max", SWEEP_NS.stop - 1, "--n-step", SWEEP_NS.step, "--rho", SWEEP_RHO, "-o", out])
    return _sha(out)


def cli_sweep(family, rule):
    """The sweep result `sweep_digest`'s command computes."""
    return scaling_sweep(family, SWEEP_NS, ApertureRule(kind=rule), rho=float(SWEEP_RHO))


def with_full_svd_sigma1(result):
    """A sweep result with each row's σ₁ taken from the full complex SVD of its channel."""
    rows = []
    for row in result.rows:
        layout = build_family_layout(result.family, row.n, row.l_target)[0]
        sigma1 = float(complex_svd_spectrum(si_matrix(layout, result.rho)).sigmas[0])
        rows.append(dataclasses.replace(row, spectral_norm=sigma1))
    return dataclasses.replace(result, rows=tuple(rows))


def full_svd_sweep_digest(family, rule, workdir) -> str:
    out = Path(workdir) / "sweep.csv"
    write_sweep_csv(with_full_svd_sigma1(cli_sweep(family, rule)), out)
    return _sha(out)


CURVE_ORACLES = {DIRECT: direct_array_factor, SINCOS: sincos_array_factor, SPLIT: running_product_array_factor}


def oracle_curve(factor, geometry, theta_s, normalized, grid_size=4096) -> BeampatternCurve:
    """`beampattern`'s curve with magnitudes from the oracle array factor ``factor``."""
    thetas = np.linspace(-np.pi / 2, np.pi / 2, grid_size)
    mag = np.abs(factor(geometry.positions, thetas, theta_s))
    if normalized:
        peak = mag.max()
        if peak > 0:
            mag = mag / peak
    with np.errstate(divide="ignore"):
        gains = 20.0 * np.log10(mag)
    gains = np.maximum(gains, DB_FLOOR)
    return BeampatternCurve(thetas=thetas, gains_db=gains, steering=float(theta_s), normalized=normalized)


def beampattern_digests(name, workdir, factor=None) -> dict:
    """Digests of the CLI `beampattern` runs of one layout, or of their
    renderings with the oracle array factor ``factor``."""
    d = Path(workdir)
    geo = d / "geometry.json"
    LAYOUTS[name](geo)
    layout = load_layout(geo)
    for f, (side, theta_s, normalized) in BP_RUNS.items():
        if factor:
            write_curve_csv(oracle_curve(factor, getattr(layout, side), theta_s, normalized), d / f)
        else:
            flags = ["--normalized"] if normalized else []
            _run(["beampattern", "--geometry", geo, "--side", side, "--theta-s", theta_s, *flags, "-o", d / f])
    return {f: _sha(d / f) for f in BP_RUNS}


def fig2_digests(workdir, factor=None, spectrum=None) -> dict:
    """Digests of the CLI `fig2` bundle; with an oracle array factor
    ``factor`` its beampattern CSVs are replaced by renderings with it and
    its spectra by `complex_svd_spectrum` renderings, and with a
    ``spectrum`` function its spectra alone by that function's renderings."""
    d = Path(workdir) / "bundle"
    with contextlib.redirect_stdout(io.StringIO()):  # fig2 lists the files it wrote
        _run(["fig2", "-o", d])
    if factor or spectrum:
        study = fig2_study()
        for fam, layout in study.layouts.items():
            if factor:
                write_curve_csv(oracle_curve(factor, layout.rx, 0.0, False), d / f"beampattern_{fam}.csv")
            write_spectrum_csv((spectrum or complex_svd_spectrum)(si_matrix(layout, study.rho)), d / f"spectrum_{fam}.csv")
    return {p.name: _sha(p) for p in sorted(d.iterdir())}


def digests(cases) -> dict:
    """Digests of the named cases: layout names and their complex-SVD
    renderings "complex-svd:<layout>", "family/rule" sweeps and their
    full-SVD renderings "full-svd:family/rule", "beampattern:<layout>" and
    "fig2", their oracle renderings "direct:...", "sincos:..." and
    "split:...", and the full-factorisation spectrum renderings
    "factored-svd:<layout>" and "factored-svd:fig2"."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            sub = Path(tmp) / case.replace("/", "_").replace(":", "_")
            sub.mkdir()
            prefix = next((pre for pre in CURVE_ORACLES if case.startswith(pre)), "")
            factor = CURVE_ORACLES.get(prefix)
            base = case[len(prefix):]
            if case == FACTORED_SVD + FIG2:
                out[case] = fig2_digests(sub, spectrum=factored_svd_spectrum)
            elif base == FIG2:
                out[case] = fig2_digests(sub, factor)
            elif base.startswith(BEAMPATTERN):
                out[case] = beampattern_digests(base[len(BEAMPATTERN):], sub, factor)
            elif case in LAYOUTS:
                out[case] = layout_digests(case, sub)
            elif case.startswith(COMPLEX_SVD):
                out[case] = layout_digests(case[len(COMPLEX_SVD):], sub, complex_svd_spectrum)
            elif case.startswith(FACTORED_SVD):
                out[case] = layout_digests(case[len(FACTORED_SVD):], sub, factored_svd_spectrum)
            elif case.startswith(FULL_SVD):
                out[case] = full_svd_sweep_digest(*case[len(FULL_SVD):].split("/"), sub)
            else:
                out[case] = sweep_digest(*case.split("/"), sub)
    return out


def child_digests(case):
    """``digests([case])[case]`` computed in a single-BLAS-thread child."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    src = str(Path(fdarray.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, case], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)[case]


# Recorded with the per-entry Fraction implementation (see the module docstring).
GOLDEN = {
    "nested_half_integer": {
        "si.csv": "22279338021ed9574877c4a681fddfe45b1049a146467c0eba4694f7022cc5a0",
        "si.json": "4d6a3ff3addf5b40b94a2a6e828cd89956c49b5f4d80c505f8484f8630862bbf",
        "svd_geometry.csv": "ed9cdfe74114b19077712bbc2eb6c19effdfff086e7466a5f0aea3648851142c",
        "svd_matrix_csv.csv": "ed9cdfe74114b19077712bbc2eb6c19effdfff086e7466a5f0aea3648851142c",
        "svd_matrix_json.csv": "ed9cdfe74114b19077712bbc2eb6c19effdfff086e7466a5f0aea3648851142c",
        "coarray.csv": "63f761400bddbd207505f9e3dc52ae6768efcf86c6b1a4c2c9e174c64e29b93e",
    },
    "nested_integer": {
        "si.csv": "6783e62defee58ae32505cac34192459885096a074da7a6ec41df4412718b0f5",
        "si.json": "4b485ef7be3d921227cffce13fe6e6cf96547a9e9b1474596d5946e84bbcf139",
        "svd_geometry.csv": "67fef5b203ee121997bf4866e2d0d7d0388280349fa9fbe955db1454867bd556",
        "svd_matrix_csv.csv": "67fef5b203ee121997bf4866e2d0d7d0388280349fa9fbe955db1454867bd556",
        "svd_matrix_json.csv": "67fef5b203ee121997bf4866e2d0d7d0388280349fa9fbe955db1454867bd556",
        "coarray.csv": "ab3ad9119838b10b931da67fb2fbfe680b15fedb6a131994ba12f1e32a56b210",
    },
    "nested_thirds_exact": {
        "si.csv": "51e41a9a113948f55547379663ccd7e3800064ae74cf693ee2eff3f7bf192f63",
        "si.json": "d8fd54f623567104f0a4fb0e92b1d0df1b5715e981335d55d7b0820ac1f7a579",
        "svd_geometry.csv": "1a1c36c0aa79cbcd6e484f64f20a2b1ef17b0d7ce6538359e4e65067e5ff01de",
        "svd_matrix_csv.csv": "1a1c36c0aa79cbcd6e484f64f20a2b1ef17b0d7ce6538359e4e65067e5ff01de",
        "svd_matrix_json.csv": "1a1c36c0aa79cbcd6e484f64f20a2b1ef17b0d7ce6538359e4e65067e5ff01de",
        "coarray.csv": "d157ea948641183f8cbb7b6117ba64dadec60696e2fa7e916597b2cf25fc68aa",
    },
    "nested_thirds_roundtrip": {
        "si.csv": "43d37ba0a7eb964f98b6475ea4fe72ff2601ab17bce9455cfb60138b33256b64",
        "si.json": "54db81b12ff1f73786ff0014873c4eb2e50b60c9b3fcb62b9fdb6aefd7347671",
        "svd_geometry.csv": "e4e4dfe982a9cdf8fa83f0b993544b19e47d0b029ab75b8738431688907a638f",
        "svd_matrix_csv.csv": "e4e4dfe982a9cdf8fa83f0b993544b19e47d0b029ab75b8738431688907a638f",
        "svd_matrix_json.csv": "e4e4dfe982a9cdf8fa83f0b993544b19e47d0b029ab75b8738431688907a638f",
        "coarray.csv": "949524f847c1edb82e4b73b122e3eae7fe947041d32dfcde1147dc7af6cea394",
    },
    "partitioned/linear": "98f5883644246dd5f66eafd611860c01faf439d78e7268834fc2dbe35f464e90",
    "partitioned/quadratic": "e834864a7cae56a89e7bb3e2f391c32691a21e02ab331745e22c54bcf2fe5bff",
    "interleaved/linear": "c84f58454a45eef65a5b343173e7a8cd359a686a103f87ddbafe29162b190486",
    "interleaved/quadratic": "90da301aa452349eed6e87272ecfc47111e74730e898769437fe0449856ad830",
    "nested/linear": "dd59cd20bbc242f11eb02f7f74f550d0bad096d863e5ef84c0661dd0e54258fa",
    "nested/quadratic": "6c4fe129a0246b92f49af68a0c78e247014942d37564a2c574c815b0dbb5b6f5",
}

# CLI sweep bytes with the singular-values-only `spectral_norm`.
GOLDEN_SWEEP = {
    "partitioned/linear": "4711b7264f45896d711343d53cab35bbc52567ddfe47efe6d730285297fd2880",
    "partitioned/quadratic": "49e62f52772d3cb26c4a10faf5473810ca0f21d9f4305428325aaf3c8846e872",
    "interleaved/linear": "55724758433e71c835b75d4f7594596c2a14724b76340ca7609fe93c29deac09",
    "interleaved/quadratic": "817126118e26e611ad794c6b49ff960707aff203f99669c311e4f8b66391d950",
    "nested/linear": "4f5f50b5fed9522dfdee78466202d8c44635ba708b13dd5039d7308154fd6ea8",
    "nested/quadratic": "c4082e37403913105cbcbe7f22e463013300b833f24b4df520c5c0c4c207c284",
}


# Recorded with the dense float direct-sum `array_factor` (see the docstring).
GOLDEN_CURVES = {
    "beampattern:nested_integer": {
        "bp_rx.csv": "c846d35265a77e699823067a2e9e53a3ac8b93f1e1ae20c9335ad7af2de8815e",
        "bp_tx.csv": "3781d91f27b8a21519243162a762e508150f68873badb8b9fa38562add40483c",
        "bp_rx_steered.csv": "99057edf004abac6e9f85334e48fbfd7cfc04b67b44736087a1975e2856a5105",
        "bp_tx_normalized_steered.csv": "205544222544224ecd512efbba13f42b6d69d53e49f59ced9964b717532fcc41",
    },
    "beampattern:nested_thirds_exact": {
        "bp_rx.csv": "25abd0ad5828858585d48a059e97f35726f3c57ed6c0b0b1a679851f1329d750",
        "bp_tx.csv": "0a1a2145a28e28043a835b528bf59c6208360f3aaac7218cd3ce1c5453097ab7",
        "bp_rx_steered.csv": "60b80f59a803adb0bb5dbdfd762baa04b70cd0aca1e539fe3cea191b4cf17c83",
        "bp_tx_normalized_steered.csv": "cd2543dabcafde75a1e2628d157501dbde69ef46d67cb027149811ff341a91cf",
    },
    "beampattern:nested_thirds_roundtrip": {
        "bp_rx.csv": "25abd0ad5828858585d48a059e97f35726f3c57ed6c0b0b1a679851f1329d750",
        "bp_tx.csv": "0a1a2145a28e28043a835b528bf59c6208360f3aaac7218cd3ce1c5453097ab7",
        "bp_rx_steered.csv": "60b80f59a803adb0bb5dbdfd762baa04b70cd0aca1e539fe3cea191b4cf17c83",
        "bp_tx_normalized_steered.csv": "cd2543dabcafde75a1e2628d157501dbde69ef46d67cb027149811ff341a91cf",
    },
    "fig2": {
        "beampattern_interleaved.csv": "5fef5efa802c714be260f06a63bd3cb3c338e62f0d75c5285852aec203d00b3e",
        "beampattern_nested.csv": "12b481ad2ef3e2df717f31cd93bd9ae2c1a4522e71f2f4cd0f30e59789817861",
        "beampattern_partitioned.csv": "7dc6166260b3d24cbc1b4a1574b7d0b44b66ff01dd6c0dd35a3f48e5f1dab57e",
        "geometry_interleaved.json": "83141059216d0bed4d5e50a482e2f5a9cc4a5c938dadfb45b0ebd724c8c11097",
        "geometry_nested.json": "6610e15422da871f17da5ca347d6db5d068fded282725f186ec9a218dbf3456d",
        "geometry_partitioned.json": "550e4b0ea3540c6ba06f346820cd274c77aed5f31c433303485a674009379ecd",
        "spectrum_interleaved.csv": "0855946bd08ba6fd86727d51870465c4a278c4143392a4df590551e46b92a1d0",
        "spectrum_nested.csv": "3a38ba65df1193c1c4ce366e9761d08ef164003d243a2649d484e29ec52aa4c6",
        "spectrum_partitioned.csv": "2d29235e3b6623cedc733b29c74d27cc077a9134ffd80573d3aec20ea316756f",
    },
}


# CLI beampattern and fig2 bytes with the tick-based `array_factor`.
GOLDEN_CURVES_TICKS = {
    "beampattern:nested_integer": {
        "bp_rx.csv": "1d9f1a391268b3c26768a504a4e076e26902f10d1fa994f7c747d1aa66382438",
        "bp_tx.csv": "0419059255723acfe8e3d4aede9bcdab20d1e7d699ee6e18000b3feb44b0f1e3",
        "bp_rx_steered.csv": "4e905bebbe5d4aa42e1c2b027f4967e64b3c3548d58ad81e2d94a6e7c1b744d6",
        "bp_tx_normalized_steered.csv": "87b4862304449a6d8c509864f9e0beed808b372a15e0f9b2a415c1f6c613741d",
    },
    "beampattern:nested_thirds_exact": {
        "bp_rx.csv": "e983777da80ec0affca88c9d22763c441dcdc2e30b7c792636707ce11a7ff0b8",
        "bp_tx.csv": "9269ba4197e0bf9f38290a7f01d2ea7c4d8ba2f50e372082716869fb3b31fc90",
        "bp_rx_steered.csv": "7ba604a24395f18cf7c5faf1e7f3841feb9708864372b77a43d1071a5a39e67e",
        "bp_tx_normalized_steered.csv": "1c9e33a316e5b968143215b19875ed3f18ded9bfc2207a52b760806344b89b10",
    },
    "beampattern:nested_thirds_roundtrip": {
        "bp_rx.csv": "3006fe81a7288abfa2d24051d092e65f0010dab9a56a0b19c6e1e2234a57ee1f",
        "bp_tx.csv": "2b1629c668fba2885bcaf85c3f2cb5c3c76d3c7628b57642d90050b765c1abc9",
        "bp_rx_steered.csv": "9b284c84fd4ee4a9b91ad96998862cf8eb5e1c58d62135ebbd0db552d3c51923",
        "bp_tx_normalized_steered.csv": "cce4ddb544e6d15149d369c16a30f2372e3ba1cbdd6d86494b4556cbe463aa3c",
    },
    "fig2": {
        "beampattern_interleaved.csv": "11f7998c01437e3f01764b9d837321ae6dfd376fa7bba241c1846f303cf8ec06",
        "beampattern_nested.csv": "f8391795a7098fa678fc0077f1336bd5c7ae527901ebdc2167604eb5b44e8a34",
        "beampattern_partitioned.csv": "cf20776207c490311e2729d12ebcd1eb32e4c646ac2e3adec828cd5596574077",
        "geometry_interleaved.json": "83141059216d0bed4d5e50a482e2f5a9cc4a5c938dadfb45b0ebd724c8c11097",
        "geometry_nested.json": "6610e15422da871f17da5ca347d6db5d068fded282725f186ec9a218dbf3456d",
        "geometry_partitioned.json": "550e4b0ea3540c6ba06f346820cd274c77aed5f31c433303485a674009379ecd",
        "spectrum_interleaved.csv": "0855946bd08ba6fd86727d51870465c4a278c4143392a4df590551e46b92a1d0",
        "spectrum_nested.csv": "3a38ba65df1193c1c4ce366e9761d08ef164003d243a2649d484e29ec52aa4c6",
        "spectrum_partitioned.csv": "2d29235e3b6623cedc733b29c74d27cc077a9134ffd80573d3aec20ea316756f",
    },
}


# CLI bytes of the files that the real-path `svd_spectrum` and the
# running-product `array_factor` moved (see the docstring).
GOLDEN_MOVED = {
    "nested_integer": {
        "svd_geometry.csv": "e569ea71ceb3e75816d078e6f6f9b5000ec62df2b282931566173fe4b3d7dea9",
        "svd_matrix_csv.csv": "e569ea71ceb3e75816d078e6f6f9b5000ec62df2b282931566173fe4b3d7dea9",
        "svd_matrix_json.csv": "e569ea71ceb3e75816d078e6f6f9b5000ec62df2b282931566173fe4b3d7dea9",
    },
    "beampattern:nested_integer": {
        "bp_rx.csv": "52a892bc455cf77a4b5b576f67c13105d71dda1a37c54577c213c752abfde6b7",
        "bp_rx_steered.csv": "0bcd2de19ac86044f40054abff693eb109b8ebcf3d2ec8842dd8ce0ba0101a09",
        "bp_tx.csv": "fa955ad3b86179d5e906cba3f6f724ad12a0277e5483114d89244db93f23805a",
        "bp_tx_normalized_steered.csv": "405a879647d82ab1b9d079bc252c35e7b926a835096e0a243383cb5a0a7a484d",
    },
    "beampattern:nested_thirds_exact": {
        "bp_rx.csv": "8ca90e998b0b2e22a8e928be838814320aa1b850ebe2d3c17018c4688e78ac73",
        "bp_rx_steered.csv": "a4a64e5f7610d8d5c7f17f27a5107df603c63123ba4ba0d9fb8529051806e71c",
        "bp_tx.csv": "4e2a8c526da53f301295e34fcead9bdfda50c4fbaad2fb5c5bd5e3cd208eb34d",
        "bp_tx_normalized_steered.csv": "f180eb412234872377b6abdbe9b494e8cf7bdbfa3767359b07ac8cc25f434509",
    },
    "fig2": {
        "beampattern_partitioned.csv": "17ad8d7edfaba034c4c9aa03f02af564954a8c98988cfc45374a48f58e0fa993",
        "spectrum_interleaved.csv": "b02899475656b208992cee806a59da45fbc59d62f6eee1b05e89030dae3b255f",
        "spectrum_nested.csv": "f128cb0edda163309f1f960201b990499020de9aeae97854cbacd45c3ad54788",
        "spectrum_partitioned.csv": "3bafda1c27041b699863ff7c30364bcf2d5e504659c3186baccb157fbe049f22",
    },
}


# CLI bytes of the curve files that the run-form `array_factor` moved (see the docstring).
GOLDEN_RUNS = {
    "beampattern:nested_integer": {
        "bp_rx.csv": "053d51d13e87bc21f69996f8b857d6774cf20a51ca1fea77a04bba15999f981f",
        "bp_tx.csv": "9286d4bb2d372b2f843539b1184b44949b0e385ed3710eab7147873751a5a3d0",
        "bp_rx_steered.csv": "6d3542dde58d14b5ed475078035fee74eb37d923f21f7fc251c12558b8f3de81",
        "bp_tx_normalized_steered.csv": "3102f709ab46f30c710651f154dc73ad0e130cf1ba8f03c52fe833afcebce434",
    },
    "beampattern:nested_thirds_exact": {
        "bp_rx.csv": "72a3fe56a268070e36dcc70a137466d3c131cb43064f0583886df492aa120fc5",
        "bp_tx.csv": "ccba366229e4953a5a4343715c836d3af5d5d2a11d2b7112e9d5bed1144a2ebb",
        "bp_rx_steered.csv": "44ebf33a087ec1bd1acd60686d4bdbeeece6a8cc2d181140543c5a37cf7f7454",
        "bp_tx_normalized_steered.csv": "982965302826afe1e59221f09666d22537cec0c8ace00c76935cb5955f571e08",
    },
    "beampattern:nested_thirds_roundtrip": {
        "bp_rx.csv": "369adf9311dd2e92a06ba3c355f520bd8cf9aca3bfb9b26fef03dee872696a0d",
        "bp_tx.csv": "435d1c275cbc8956d1d1e26ea039639da5cf1df7a039a64cd0e8b182be325102",
        "bp_rx_steered.csv": "cddf2a91b31c8715519056186b06ab9db91e341586575633d3f52aa4ab75ed3c",
        "bp_tx_normalized_steered.csv": "c0aa3475f5c8c31ccacb73c6a2b218118eae4d007acd23160fccdc71f92e3ba0",
    },
    "fig2": {
        "beampattern_interleaved.csv": "bc7563a69270afae40fe44c6f092dcc0481a3ff2c1ff281573602361fd23ed09",
        "beampattern_nested.csv": "3386c582d5cbcb7cea22274f366e015e579d9fb15b9b55134e05aaae1acba028",
        "beampattern_partitioned.csv": "1e8598cd1457656261fe1847714a530094fd26dca11bad27c5abb8c860db126d",
    },
}


# CLI bytes of the spectrum files that the values-only `svd_spectrum` moved (see the docstring).
GOLDEN_VALUES = {
    "nested_half_integer": {
        "svd_geometry.csv": "be484dc855413ab5d52d3e85830ee2a142c6f034fa9144dd1336111ff6e2846e",
        "svd_matrix_csv.csv": "be484dc855413ab5d52d3e85830ee2a142c6f034fa9144dd1336111ff6e2846e",
        "svd_matrix_json.csv": "be484dc855413ab5d52d3e85830ee2a142c6f034fa9144dd1336111ff6e2846e",
    },
    "nested_integer": {
        "svd_geometry.csv": "b58c3b8bbb3bd770012be657d193c23b485ca5cb7bd47aca8e78ed015da7d9df",
        "svd_matrix_csv.csv": "b58c3b8bbb3bd770012be657d193c23b485ca5cb7bd47aca8e78ed015da7d9df",
        "svd_matrix_json.csv": "b58c3b8bbb3bd770012be657d193c23b485ca5cb7bd47aca8e78ed015da7d9df",
    },
    "nested_thirds_exact": {
        "svd_geometry.csv": "0458692b8ae92f15f0d99649c1f22a25e74f158998be4aedc017c65bd4425e82",
        "svd_matrix_csv.csv": "0458692b8ae92f15f0d99649c1f22a25e74f158998be4aedc017c65bd4425e82",
        "svd_matrix_json.csv": "0458692b8ae92f15f0d99649c1f22a25e74f158998be4aedc017c65bd4425e82",
    },
    "nested_thirds_roundtrip": {
        "svd_geometry.csv": "ff93f7231693e5e2567e14189116d25abea0babd4e1761bbb074f79327a43065",
        "svd_matrix_csv.csv": "ff93f7231693e5e2567e14189116d25abea0babd4e1761bbb074f79327a43065",
        "svd_matrix_json.csv": "ff93f7231693e5e2567e14189116d25abea0babd4e1761bbb074f79327a43065",
    },
    "fig2": {
        "spectrum_interleaved.csv": "0f990719e883b21bcb9457e115c9fe5d5eadca3de0c93a6d3f7476ac46731a6d",
        "spectrum_nested.csv": "2b56e70bf8b0aedae7831ec6abf9664bd5fa5290de1ddcd20458bea8327ce77f",
        "spectrum_partitioned.csv": "81e83c93f1e8ff062c19a637acad737afcb58c6f68abec92eed5ae0847241f11",
    },
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_outputs_match_golden_bytes(name):
    got, want = child_digests(name), {**GOLDEN[name], **GOLDEN_MOVED.get(name, {}), **GOLDEN_VALUES[name]}
    if not LAPACK_PINNED:
        got, want = ({k: v for k, v in d.items() if k not in LAPACK_FILES} for d in (got, want))
    assert got == want


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_complex_svd_rendering_matches_golden_bytes(name):
    """The complex-SVD rendering reproduces the bytes the layout pins recorded."""
    got, want = child_digests(COMPLEX_SVD + name), GOLDEN[name]
    if not LAPACK_PINNED:
        got, want = ({k: v for k, v in d.items() if k not in LAPACK_FILES} for d in (got, want))
    assert got == want


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_factored_svd_rendering_matches_golden_bytes(name):
    """The full-factorisation rendering reproduces the bytes the layout pins recorded
    before `svd_spectrum` took values only."""
    got, want = child_digests(FACTORED_SVD + name), {**GOLDEN[name], **GOLDEN_MOVED.get(name, {})}
    if not LAPACK_PINNED:
        got, want = ({k: v for k, v in d.items() if k not in LAPACK_FILES} for d in (got, want))
    assert got == want


@pytest.mark.skipif(not LAPACK_PINNED, reason="sweep pins were recorded with numpy 2.4.6's OpenBLAS")
@pytest.mark.parametrize("family,rule", SWEEPS)
def test_sweep_output_matches_golden_bytes(family, rule):
    """The full-SVD rendering reproduces the bytes the sweep pins recorded."""
    assert child_digests(f"{FULL_SVD}{family}/{rule}") == GOLDEN[f"{family}/{rule}"]


@pytest.mark.skipif(not LAPACK_PINNED, reason="sweep pins were recorded with numpy 2.4.6's OpenBLAS")
@pytest.mark.parametrize("family,rule", SWEEPS)
def test_sweep_cli_output_matches_golden_bytes(family, rule):
    assert child_digests(f"{family}/{rule}") == GOLDEN_SWEEP[f"{family}/{rule}"]


@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES))
def test_curve_direct_rendering_matches_golden_bytes(case):
    """The direct-sum rendering reproduces the bytes the curve pins recorded."""
    got, want = child_digests(DIRECT + case), GOLDEN_CURVES[case]
    if not LAPACK_PINNED:
        got, want = ({k: v for k, v in d.items() if k not in FIG2_LAPACK_FILES} for d in (got, want))
    assert got == want


@pytest.mark.skipif(not LAPACK_PINNED, reason="curve pins were recorded with numpy 2.4.6's OpenBLAS")
@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES_TICKS))
def test_curve_sincos_rendering_matches_golden_bytes(case):
    """The sine/cosine-split rendering reproduces the bytes the tick-based curve pins recorded."""
    assert child_digests(SINCOS + case) == GOLDEN_CURVES_TICKS[case]


@pytest.mark.skipif(not LAPACK_PINNED, reason="curve pins were recorded with numpy 2.4.6's OpenBLAS")
@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES_TICKS))
def test_curve_split_rendering_matches_golden_bytes(case):
    """The running-product split reproduces the tick-based curve pins it moved
    (the rendering's fig2 spectra come from the complex SVD, as ``GOLDEN_CURVES_TICKS`` recorded them)."""
    moved = {f: d for f, d in GOLDEN_MOVED.get(case, {}).items() if f not in FIG2_LAPACK_FILES}
    assert child_digests(SPLIT + case) == {**GOLDEN_CURVES_TICKS[case], **moved}


@pytest.mark.skipif(not LAPACK_PINNED, reason="curve pins were recorded with numpy 2.4.6's OpenBLAS")
@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES_TICKS))
def test_curve_cli_output_matches_golden_bytes(case):
    want = {**GOLDEN_CURVES_TICKS[case], **GOLDEN_MOVED.get(case, {}), **GOLDEN_RUNS[case], **GOLDEN_VALUES.get(case, {})}
    assert child_digests(case) == want


@pytest.mark.skipif(not LAPACK_PINNED, reason="curve pins were recorded with numpy 2.4.6's OpenBLAS")
def test_fig2_factored_svd_rendering_matches_golden_bytes():
    """The full-factorisation rendering reproduces the fig2 bytes pinned before
    `svd_spectrum` took values only."""
    want = {**GOLDEN_CURVES_TICKS[FIG2], **GOLDEN_MOVED[FIG2], **GOLDEN_RUNS[FIG2]}
    assert child_digests(FACTORED_SVD + FIG2) == want


def test_sweep_sigma1_agrees_with_full_svd():
    for family, rule in SWEEPS:
        got = cli_sweep(family, rule)
        want = with_full_svd_sigma1(got)
        assert len(got.rows) == len(SWEEP_NS)
        for row, ref in zip(got.rows, want.rows):
            assert row.n == ref.n
            assert abs(row.spectral_norm - ref.spectral_norm) <= 1e-12 * ref.spectral_norm


if __name__ == "__main__":
    layouts = [f"{pre}{name}" for pre in ("", COMPLEX_SVD, FACTORED_SVD) for name in sorted(LAYOUTS)]
    sweeps = [f"{pre}{fam}/{rule}" for pre in ("", FULL_SVD) for fam, rule in SWEEPS]
    curve_cases = [BEAMPATTERN + n for n in BP_LAYOUTS] + [FIG2]
    curves = [f"{pre}{case}" for pre in ("", DIRECT, SINCOS, SPLIT) for case in curve_cases] + [FACTORED_SVD + FIG2]
    cases = sys.argv[1:] or layouts + sweeps + curves
    json.dump(digests(cases), sys.stdout, indent=4)
    print()
