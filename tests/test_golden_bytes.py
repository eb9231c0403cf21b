"""Byte pins for CLI outputs across versions.

Each digest is the sha256 of a file written by ``fdarray.cli.main``. `PINS`
lists, for each case and output file, every digest the file has had, oldest
first, each paired with the newest renderer in `RENDERERS` that still
reproduces it; the last pair is the CLI's. A renderer runs the CLI and rewrites the files of
one or two layers (the spectrum function, the sweep σ₁ or the array factor)
with their code from before a change that moved their last digits, so every old
digest keeps showing that the rest of the pipeline is byte-unchanged. `pin`
derives the digest a render must reproduce, and one parametrised test body,
`check_pins`, checks every render under the test names of `PIN_TESTS`. The
determinism test in ``test_acceptance.py`` (criterion 9) only compares two
runs of one version.

The ``si``, ``coarray`` and geometry digests and the direct-sum curves involve
no BLAS or LAPACK call and hold everywhere. The bytes of ``svd`` and
``sweep`` outputs, the ``fig2`` spectra and the tick-based curves also depend
on the BLAS/LAPACK build, its CPU kernel and the BLAS thread count: every
render runs in one child interpreter with one BLAS thread, and those pins,
taken with numpy 2.4.6's bundled OpenBLAS 0.3.31 on an x86-64 Xeon, are
checked only under that numpy version. Every curve pin also depends on
numpy's float64 ``np.sin``. On the x86-64 Xeon the pins were taken on
(AVX-512 available), numpy 2.4.6 does not vectorise it: it matched glibc's
``sin`` bit for bit on 200000 random arguments, so the pins follow the libm
rather than a SIMD kernel.

When a change moves bytes, add a renderer just before ``"cli"`` that
rewrites the moved layers with their code from before the change, saying why;
in each moved file's pins, relabel the ``"cli"`` pair with the new renderer
and append the new ``("cli", digest)`` pair. Add a test that holds the new
values to a tolerance of the old ones. Print every render's pairs, in the
shape of `PINS`, with::

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

import ast
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from oracles import direct_array_factor, factored_svd, running_product_array_factor, sincos_array_factor

import fdarray
from fdarray import spectral
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
from fdarray.spectral import spectral_norm, svd_spectrum

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# LAPACK-dependent pins are checked only with the numpy they were recorded with
LAPACK_PINNED = np.__version__ == "2.4.6"
RHO = "0.37"
SWEEP_RHO = "0.61"
SWEEP_NS = range(10, 201, 10)
BEAMPATTERN = "beampattern:"
FIG2 = "fig2"
SVD_FILES = ("svd_geometry.csv", "svd_matrix_csv.csv", "svd_matrix_json.csv")
# beampattern output file -> (side, theta_s, normalized)
BP_RUNS = {
    "bp_rx.csv": ("rx", 0.0, False),
    "bp_tx.csv": ("tx", 0.0, False),
    "bp_rx_steered.csv": ("rx", 0.41, False),
    "bp_tx_normalized_steered.csv": ("tx", -0.73, True),
}
# output file name prefix -> the layer that writes its numbers
FILE_LAYERS = {"svd_": "spectrum", "spectrum_": "spectrum", "sweep": "sigma1", "bp_": "factor", "beampattern_": "factor"}


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

LAYOUT_CASES = sorted(LAYOUTS)
SWEEP_CASES = [f"{fam}-{rule}" for fam, rule in SWEEPS]
CURVE_CASES = [*(BEAMPATTERN + name for name in ("nested_integer", "nested_thirds_exact", "nested_thirds_roundtrip")), FIG2]


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


def cli_sweep(family, rule):
    """The sweep result the CLI ``sweep`` command of a sweep case computes."""
    return scaling_sweep(family, SWEEP_NS, ApertureRule(kind=rule), rho=float(SWEEP_RHO))


def with_sigma1(sigma1, result):
    """A sweep result with each row's σ₁ taken by ``sigma1`` from its channel."""
    rows = []
    for row in result.rows:
        layout = build_family_layout(result.family, row.n, row.l_target)[0]
        rows.append(dataclasses.replace(row, spectral_norm=sigma1(si_matrix(layout, result.rho))))
    return dataclasses.replace(result, rows=tuple(rows))


def with_full_svd_sigma1(result):
    """A sweep result with each row's σ₁ taken from the full complex SVD of its channel."""
    return with_sigma1(lambda channel: float(complex_svd_spectrum(channel).sigmas[0]), result)


def values_svd(arr):
    """`spectral._singular_values` from before the mirror case: exact for at
    most one nonzero per row and column, else the values-only SVD."""
    if np.count_nonzero(arr[0]) <= 1 and all(((arr != 0).sum(axis=k) <= 1).all() for k in (0, 1)):
        return np.sort(np.abs(arr).max(axis=int(arr.shape[0] <= arr.shape[1])))[::-1]
    return np.linalg.svd(arr, compute_uv=False)


def with_values_svd(f):
    """``f`` run with `values_svd` in place of `spectral._singular_values`."""
    def run(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "_singular_values", values_svd)
            return f(*args)
    return run


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


class Renderer(NamedTuple):
    old: dict[str, Callable]  # layer it rewrites ("spectrum", "sigma1" or "factor") -> its older code
    why: str  # the change that moved bytes past it
    also: tuple = ()  # renderers whose layers it rewrites too


# In the order of the changes. The curve renderers also write the fig2
# spectra with the complex SVD, which wrote them when the tick-based curves
# were pinned.
RENDERERS = {
    "full-svd": Renderer(
        {"sigma1": with_full_svd_sigma1},
        "`spectral_norm` took σ₁ from singular values only, in real arithmetic on integer-grid channels",
    ),
    "direct": Renderer(
        {"factor": direct_array_factor}, "`array_factor` moved to exact integer ticks and matrix products",
        also=("complex-svd",),
    ),
    "complex-svd": Renderer(
        {"spectrum": complex_svd_spectrum}, "`svd_spectrum` factored exactly real matrices in real arithmetic"
    ),
    "sincos": Renderer(
        {"factor": sincos_array_factor}, "`array_factor` built its phases by running products",
        also=("complex-svd",),
    ),
    "split": Renderer(
        {"factor": running_product_array_factor},
        "`array_factor` became one Dirichlet kernel per uniform run of ticks",
        also=("complex-svd",),
    ),
    "factored-svd": Renderer(
        {"spectrum": factored_svd_spectrum}, "`svd_spectrum` took its values from the values-only LAPACK call"
    ),
    "values-svd": Renderer(
        {
            "spectrum": with_values_svd(svd_spectrum),
            "sigma1": with_values_svd(functools.partial(with_sigma1, spectral_norm)),
        },
        "a real matrix that is exactly symmetric, or whose row reversal is (Tx mirroring Rx), took its values "
        "from the symmetric eigensolver",
    ),
    "cli": Renderer({}, "no change: it renders the code under test"),
}
ORDER = list(RENDERERS)

# Test name -> (renderer, the cases it renders; a bare case makes an
# unparametrised test). The names are those the renders were first reported under.
PIN_TESTS = {
    "test_layout_outputs_match_golden_bytes": ("cli", LAYOUT_CASES),
    "test_layout_complex_svd_rendering_matches_golden_bytes": ("complex-svd", LAYOUT_CASES),
    "test_layout_factored_svd_rendering_matches_golden_bytes": ("factored-svd", LAYOUT_CASES),
    "test_sweep_output_matches_golden_bytes": ("full-svd", SWEEP_CASES),
    "test_sweep_cli_output_matches_golden_bytes": ("cli", SWEEP_CASES),
    "test_curve_direct_rendering_matches_golden_bytes": ("direct", CURVE_CASES),
    "test_curve_sincos_rendering_matches_golden_bytes": ("sincos", CURVE_CASES),
    "test_curve_split_rendering_matches_golden_bytes": ("split", CURVE_CASES),
    "test_curve_cli_output_matches_golden_bytes": ("cli", CURVE_CASES),
    "test_fig2_factored_svd_rendering_matches_golden_bytes": ("factored-svd", FIG2),
    "test_layout_values_svd_rendering_matches_golden_bytes": ("values-svd", LAYOUT_CASES),
    "test_sweep_values_svd_rendering_matches_golden_bytes": ("values-svd", SWEEP_CASES),
    "test_fig2_values_svd_rendering_matches_golden_bytes": ("values-svd", FIG2),
}
RENDERS = {(r, c) for r, cases in PIN_TESTS.values() for c in ([cases] if isinstance(cases, str) else cases)}


def layer_of(file):
    return next((layer for prefix, layer in FILE_LAYERS.items() if file.startswith(prefix)), None)


def versions(renderer) -> dict:
    """Layer -> the renderer whose older code of it ``renderer`` runs."""
    return {layer: r for r in (renderer, *RENDERERS[renderer].also) for layer in RENDERERS[r].old}


def render(renderer, case, workdir) -> dict:
    """Digests of the files the CLI writes for ``case``, except that the files
    of each layer ``renderer`` rewrites come from that layer's older code."""
    old = {layer: RENDERERS[r].old[layer] for layer, r in versions(renderer).items()}
    spectrum, sigma1, factor = (old.get(layer) for layer in ("spectrum", "sigma1", "factor"))
    geo, out = Path(workdir) / "geometry.json", Path(workdir) / "out"
    if case == FIG2:
        with contextlib.redirect_stdout(io.StringIO()):  # fig2 lists the files it wrote
            _run(["fig2", "-o", out])
        study = fig2_study()
        for fam, layout in study.layouts.items():
            if factor:
                write_curve_csv(oracle_curve(factor, layout.rx, 0.0, False), out / f"beampattern_{fam}.csv")
            if spectrum:
                write_spectrum_csv(spectrum(si_matrix(layout, study.rho)), out / f"spectrum_{fam}.csv")
        return {p.name: _sha(p) for p in sorted(out.iterdir())}
    out.mkdir()
    if case in SWEEP_CASES:
        family, rule = case.split("-")
        if sigma1:
            write_sweep_csv(sigma1(cli_sweep(family, rule)), out / "sweep.csv")
        else:
            _run(["sweep", "--family", family, "--rule", rule, "--n-min", SWEEP_NS.start, "--n-max",
                  SWEEP_NS.stop - 1, "--n-step", SWEEP_NS.step, "--rho", SWEEP_RHO, "-o", out / "sweep.csv"])
    elif case.startswith(BEAMPATTERN):
        LAYOUTS[case[len(BEAMPATTERN):]](geo)
        layout = load_layout(geo)
        for f, (side, theta_s, normalized) in BP_RUNS.items():
            if factor:
                write_curve_csv(oracle_curve(factor, getattr(layout, side), theta_s, normalized), out / f)
            else:
                flags = ["--normalized"] if normalized else []
                _run(["beampattern", "--geometry", geo, "--side", side, "--theta-s", theta_s, *flags, "-o", out / f])
    else:
        LAYOUTS[case](geo)
        for fmt in ("csv", "json"):
            _run(["si", "--geometry", geo, "--rho", RHO, "--format", fmt, "-o", out / f"si.{fmt}"])
        if spectrum:
            write_spectrum_csv(spectrum(si_matrix(load_layout(geo), float(RHO))), out / "svd_geometry.csv")
            write_spectrum_csv(spectrum(load_matrix_csv(out / "si.csv")), out / "svd_matrix_csv.csv")
            write_spectrum_csv(spectrum(load_matrix_json(out / "si.json")), out / "svd_matrix_json.csv")
        else:
            _run(["svd", "--geometry", geo, "--rho", RHO, "-o", out / "svd_geometry.csv"])
            _run(["svd", "--matrix", out / "si.csv", "-o", out / "svd_matrix_csv.csv"])
            _run(["svd", "--matrix", out / "si.json", "-o", out / "svd_matrix_json.csv"])
        _run(["coarray", "--geometry", geo, "-o", out / "coarray.csv"])
    return {p.name: _sha(p) for p in sorted(out.iterdir())}


def render_all() -> dict:
    """Every render's digests in the shape of `PINS`: case -> file -> its
    (renderer, digest) pairs, renderers in `RENDERERS` order."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in LAYOUT_CASES + SWEEP_CASES + CURVE_CASES:
            for renderer in ORDER:
                if (renderer, case) in RENDERS:
                    workdir = Path(tmp) / f"{renderer}_{case}".replace(":", "_")
                    workdir.mkdir()
                    for f, digest in render(renderer, case, workdir).items():
                        table.setdefault(case, {}).setdefault(f, []).append((renderer, digest))
    return table


@functools.cache
def rendered() -> dict:
    """`render_all` computed once, in a child interpreter with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    src = str(Path(fdarray.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def pin(renderer, case, file) -> tuple:
    """The (renderer, digest) pair of ``file`` that ``renderer`` must reproduce:
    the first whose renderer is not older than the one whose code of the
    file's layer it runs."""
    version = versions(renderer).get(layer_of(file), "cli")
    return next(p for p in PINS[case][file] if ORDER.index(p[0]) >= ORDER.index(version))


# case -> output file -> its (renderer, digest) pairs, oldest first; see the docstring
PINS = {
    "nested_half_integer": {
        "si.csv": [("cli", "22279338021ed9574877c4a681fddfe45b1049a146467c0eba4694f7022cc5a0")],
        "si.json": [("cli", "4d6a3ff3addf5b40b94a2a6e828cd89956c49b5f4d80c505f8484f8630862bbf")],
        **dict.fromkeys(SVD_FILES, [
            ("factored-svd", "ed9cdfe74114b19077712bbc2eb6c19effdfff086e7466a5f0aea3648851142c"),
            ("cli", "be484dc855413ab5d52d3e85830ee2a142c6f034fa9144dd1336111ff6e2846e"),
        ]),
        "coarray.csv": [("cli", "63f761400bddbd207505f9e3dc52ae6768efcf86c6b1a4c2c9e174c64e29b93e")],
    },
    "nested_integer": {
        "si.csv": [("cli", "6783e62defee58ae32505cac34192459885096a074da7a6ec41df4412718b0f5")],
        "si.json": [("cli", "4b485ef7be3d921227cffce13fe6e6cf96547a9e9b1474596d5946e84bbcf139")],
        **dict.fromkeys(SVD_FILES, [
            ("complex-svd", "67fef5b203ee121997bf4866e2d0d7d0388280349fa9fbe955db1454867bd556"),
            ("factored-svd", "e569ea71ceb3e75816d078e6f6f9b5000ec62df2b282931566173fe4b3d7dea9"),
            ("values-svd", "b58c3b8bbb3bd770012be657d193c23b485ca5cb7bd47aca8e78ed015da7d9df"),
            ("cli", "041e9d33f4ff197f30d18bfd90fdc051e9960af3f3e8c8e0098c2ae2d84370d5"),
        ]),
        "coarray.csv": [("cli", "ab3ad9119838b10b931da67fb2fbfe680b15fedb6a131994ba12f1e32a56b210")],
    },
    "nested_thirds_exact": {
        "si.csv": [("cli", "51e41a9a113948f55547379663ccd7e3800064ae74cf693ee2eff3f7bf192f63")],
        "si.json": [("cli", "d8fd54f623567104f0a4fb0e92b1d0df1b5715e981335d55d7b0820ac1f7a579")],
        **dict.fromkeys(SVD_FILES, [
            ("factored-svd", "1a1c36c0aa79cbcd6e484f64f20a2b1ef17b0d7ce6538359e4e65067e5ff01de"),
            ("cli", "0458692b8ae92f15f0d99649c1f22a25e74f158998be4aedc017c65bd4425e82"),
        ]),
        "coarray.csv": [("cli", "d157ea948641183f8cbb7b6117ba64dadec60696e2fa7e916597b2cf25fc68aa")],
    },
    "nested_thirds_roundtrip": {
        "si.csv": [("cli", "43d37ba0a7eb964f98b6475ea4fe72ff2601ab17bce9455cfb60138b33256b64")],
        "si.json": [("cli", "54db81b12ff1f73786ff0014873c4eb2e50b60c9b3fcb62b9fdb6aefd7347671")],
        **dict.fromkeys(SVD_FILES, [
            ("factored-svd", "e4e4dfe982a9cdf8fa83f0b993544b19e47d0b029ab75b8738431688907a638f"),
            ("cli", "ff93f7231693e5e2567e14189116d25abea0babd4e1761bbb074f79327a43065"),
        ]),
        "coarray.csv": [("cli", "949524f847c1edb82e4b73b122e3eae7fe947041d32dfcde1147dc7af6cea394")],
    },
    "partitioned-linear": {
        "sweep.csv": [
            ("full-svd", "98f5883644246dd5f66eafd611860c01faf439d78e7268834fc2dbe35f464e90"),
            ("values-svd", "4711b7264f45896d711343d53cab35bbc52567ddfe47efe6d730285297fd2880"),
            ("cli", "dbd80d22ffc3137a38ba1165c245cfe0bde78765f1cf63b71ee7ea81139c8a15"),
        ],
    },
    "partitioned-quadratic": {
        "sweep.csv": [
            ("full-svd", "e834864a7cae56a89e7bb3e2f391c32691a21e02ab331745e22c54bcf2fe5bff"),
            ("values-svd", "49e62f52772d3cb26c4a10faf5473810ca0f21d9f4305428325aaf3c8846e872"),
            ("cli", "c7adcb30177cf14290e596ede60c23143e5c19e07bed461403052c171d05455c"),
        ],
    },
    "interleaved-linear": {
        "sweep.csv": [
            ("full-svd", "c84f58454a45eef65a5b343173e7a8cd359a686a103f87ddbafe29162b190486"),
            ("values-svd", "55724758433e71c835b75d4f7594596c2a14724b76340ca7609fe93c29deac09"),
            ("cli", "6c90e9a0846f42f6e96df8a642302f1fd38f1b258ed2b0d124e850718ee09767"),
        ],
    },
    "interleaved-quadratic": {
        "sweep.csv": [
            ("full-svd", "90da301aa452349eed6e87272ecfc47111e74730e898769437fe0449856ad830"),
            ("values-svd", "817126118e26e611ad794c6b49ff960707aff203f99669c311e4f8b66391d950"),
            ("cli", "8dd4d93adcb5cd209ea04ae10224f28bf9372b60b4ae29fff1200b75c7396c15"),
        ],
    },
    "nested-linear": {
        "sweep.csv": [
            ("full-svd", "dd59cd20bbc242f11eb02f7f74f550d0bad096d863e5ef84c0661dd0e54258fa"),
            ("values-svd", "4f5f50b5fed9522dfdee78466202d8c44635ba708b13dd5039d7308154fd6ea8"),
            ("cli", "6b4fa583543b2d7a97449a7b364a5215beade4a861aa25d0d68a2a5667283990"),
        ],
    },
    "nested-quadratic": {
        "sweep.csv": [
            ("full-svd", "6c4fe129a0246b92f49af68a0c78e247014942d37564a2c574c815b0dbb5b6f5"),
            ("values-svd", "c4082e37403913105cbcbe7f22e463013300b833f24b4df520c5c0c4c207c284"),
            ("cli", "a56b05601a6c6c489dad6232ad6230a57f7f5219543fa605f2e54d04d63abcf9"),
        ],
    },
    "beampattern:nested_integer": {
        "bp_rx.csv": [
            ("direct", "c846d35265a77e699823067a2e9e53a3ac8b93f1e1ae20c9335ad7af2de8815e"),
            ("sincos", "1d9f1a391268b3c26768a504a4e076e26902f10d1fa994f7c747d1aa66382438"),
            ("split", "52a892bc455cf77a4b5b576f67c13105d71dda1a37c54577c213c752abfde6b7"),
            ("cli", "053d51d13e87bc21f69996f8b857d6774cf20a51ca1fea77a04bba15999f981f"),
        ],
        "bp_tx.csv": [
            ("direct", "3781d91f27b8a21519243162a762e508150f68873badb8b9fa38562add40483c"),
            ("sincos", "0419059255723acfe8e3d4aede9bcdab20d1e7d699ee6e18000b3feb44b0f1e3"),
            ("split", "fa955ad3b86179d5e906cba3f6f724ad12a0277e5483114d89244db93f23805a"),
            ("cli", "9286d4bb2d372b2f843539b1184b44949b0e385ed3710eab7147873751a5a3d0"),
        ],
        "bp_rx_steered.csv": [
            ("direct", "99057edf004abac6e9f85334e48fbfd7cfc04b67b44736087a1975e2856a5105"),
            ("sincos", "4e905bebbe5d4aa42e1c2b027f4967e64b3c3548d58ad81e2d94a6e7c1b744d6"),
            ("split", "0bcd2de19ac86044f40054abff693eb109b8ebcf3d2ec8842dd8ce0ba0101a09"),
            ("cli", "6d3542dde58d14b5ed475078035fee74eb37d923f21f7fc251c12558b8f3de81"),
        ],
        "bp_tx_normalized_steered.csv": [
            ("direct", "205544222544224ecd512efbba13f42b6d69d53e49f59ced9964b717532fcc41"),
            ("sincos", "87b4862304449a6d8c509864f9e0beed808b372a15e0f9b2a415c1f6c613741d"),
            ("split", "405a879647d82ab1b9d079bc252c35e7b926a835096e0a243383cb5a0a7a484d"),
            ("cli", "3102f709ab46f30c710651f154dc73ad0e130cf1ba8f03c52fe833afcebce434"),
        ],
    },
    "beampattern:nested_thirds_exact": {
        "bp_rx.csv": [
            ("direct", "25abd0ad5828858585d48a059e97f35726f3c57ed6c0b0b1a679851f1329d750"),
            ("sincos", "e983777da80ec0affca88c9d22763c441dcdc2e30b7c792636707ce11a7ff0b8"),
            ("split", "8ca90e998b0b2e22a8e928be838814320aa1b850ebe2d3c17018c4688e78ac73"),
            ("cli", "72a3fe56a268070e36dcc70a137466d3c131cb43064f0583886df492aa120fc5"),
        ],
        "bp_tx.csv": [
            ("direct", "0a1a2145a28e28043a835b528bf59c6208360f3aaac7218cd3ce1c5453097ab7"),
            ("sincos", "9269ba4197e0bf9f38290a7f01d2ea7c4d8ba2f50e372082716869fb3b31fc90"),
            ("split", "4e2a8c526da53f301295e34fcead9bdfda50c4fbaad2fb5c5bd5e3cd208eb34d"),
            ("cli", "ccba366229e4953a5a4343715c836d3af5d5d2a11d2b7112e9d5bed1144a2ebb"),
        ],
        "bp_rx_steered.csv": [
            ("direct", "60b80f59a803adb0bb5dbdfd762baa04b70cd0aca1e539fe3cea191b4cf17c83"),
            ("sincos", "7ba604a24395f18cf7c5faf1e7f3841feb9708864372b77a43d1071a5a39e67e"),
            ("split", "a4a64e5f7610d8d5c7f17f27a5107df603c63123ba4ba0d9fb8529051806e71c"),
            ("cli", "44ebf33a087ec1bd1acd60686d4bdbeeece6a8cc2d181140543c5a37cf7f7454"),
        ],
        "bp_tx_normalized_steered.csv": [
            ("direct", "cd2543dabcafde75a1e2628d157501dbde69ef46d67cb027149811ff341a91cf"),
            ("sincos", "1c9e33a316e5b968143215b19875ed3f18ded9bfc2207a52b760806344b89b10"),
            ("split", "f180eb412234872377b6abdbe9b494e8cf7bdbfa3767359b07ac8cc25f434509"),
            ("cli", "982965302826afe1e59221f09666d22537cec0c8ace00c76935cb5955f571e08"),
        ],
    },
    "beampattern:nested_thirds_roundtrip": {
        "bp_rx.csv": [
            ("direct", "25abd0ad5828858585d48a059e97f35726f3c57ed6c0b0b1a679851f1329d750"),
            ("split", "3006fe81a7288abfa2d24051d092e65f0010dab9a56a0b19c6e1e2234a57ee1f"),
            ("cli", "369adf9311dd2e92a06ba3c355f520bd8cf9aca3bfb9b26fef03dee872696a0d"),
        ],
        "bp_tx.csv": [
            ("direct", "0a1a2145a28e28043a835b528bf59c6208360f3aaac7218cd3ce1c5453097ab7"),
            ("split", "2b1629c668fba2885bcaf85c3f2cb5c3c76d3c7628b57642d90050b765c1abc9"),
            ("cli", "435d1c275cbc8956d1d1e26ea039639da5cf1df7a039a64cd0e8b182be325102"),
        ],
        "bp_rx_steered.csv": [
            ("direct", "60b80f59a803adb0bb5dbdfd762baa04b70cd0aca1e539fe3cea191b4cf17c83"),
            ("split", "9b284c84fd4ee4a9b91ad96998862cf8eb5e1c58d62135ebbd0db552d3c51923"),
            ("cli", "cddf2a91b31c8715519056186b06ab9db91e341586575633d3f52aa4ab75ed3c"),
        ],
        "bp_tx_normalized_steered.csv": [
            ("direct", "cd2543dabcafde75a1e2628d157501dbde69ef46d67cb027149811ff341a91cf"),
            ("split", "cce4ddb544e6d15149d369c16a30f2372e3ba1cbdd6d86494b4556cbe463aa3c"),
            ("cli", "c0aa3475f5c8c31ccacb73c6a2b218118eae4d007acd23160fccdc71f92e3ba0"),
        ],
    },
    "fig2": {
        "beampattern_interleaved.csv": [
            ("direct", "5fef5efa802c714be260f06a63bd3cb3c338e62f0d75c5285852aec203d00b3e"),
            ("split", "11f7998c01437e3f01764b9d837321ae6dfd376fa7bba241c1846f303cf8ec06"),
            ("cli", "bc7563a69270afae40fe44c6f092dcc0481a3ff2c1ff281573602361fd23ed09"),
        ],
        "beampattern_nested.csv": [
            ("direct", "12b481ad2ef3e2df717f31cd93bd9ae2c1a4522e71f2f4cd0f30e59789817861"),
            ("split", "f8391795a7098fa678fc0077f1336bd5c7ae527901ebdc2167604eb5b44e8a34"),
            ("cli", "3386c582d5cbcb7cea22274f366e015e579d9fb15b9b55134e05aaae1acba028"),
        ],
        "beampattern_partitioned.csv": [
            ("direct", "7dc6166260b3d24cbc1b4a1574b7d0b44b66ff01dd6c0dd35a3f48e5f1dab57e"),
            ("sincos", "cf20776207c490311e2729d12ebcd1eb32e4c646ac2e3adec828cd5596574077"),
            ("split", "17ad8d7edfaba034c4c9aa03f02af564954a8c98988cfc45374a48f58e0fa993"),
            ("cli", "1e8598cd1457656261fe1847714a530094fd26dca11bad27c5abb8c860db126d"),
        ],
        "geometry_interleaved.json": [("cli", "83141059216d0bed4d5e50a482e2f5a9cc4a5c938dadfb45b0ebd724c8c11097")],
        "geometry_nested.json": [("cli", "6610e15422da871f17da5ca347d6db5d068fded282725f186ec9a218dbf3456d")],
        "geometry_partitioned.json": [("cli", "550e4b0ea3540c6ba06f346820cd274c77aed5f31c433303485a674009379ecd")],
        "spectrum_interleaved.csv": [
            ("complex-svd", "0855946bd08ba6fd86727d51870465c4a278c4143392a4df590551e46b92a1d0"),
            ("factored-svd", "b02899475656b208992cee806a59da45fbc59d62f6eee1b05e89030dae3b255f"),
            ("values-svd", "0f990719e883b21bcb9457e115c9fe5d5eadca3de0c93a6d3f7476ac46731a6d"),
            ("cli", "a24ef81f36dba4fc71c6735e69625d7be1cf9913c0d55abc5cde6fb309f086e8"),
        ],
        "spectrum_nested.csv": [
            ("complex-svd", "3a38ba65df1193c1c4ce366e9761d08ef164003d243a2649d484e29ec52aa4c6"),
            ("factored-svd", "f128cb0edda163309f1f960201b990499020de9aeae97854cbacd45c3ad54788"),
            ("values-svd", "2b56e70bf8b0aedae7831ec6abf9664bd5fa5290de1ddcd20458bea8327ce77f"),
            ("cli", "63d7a11f81a90ec49cd85ed8082ecd42a5c6d8ec843a52ce1e2e534fd7fea7b7"),
        ],
        "spectrum_partitioned.csv": [
            ("complex-svd", "2d29235e3b6623cedc733b29c74d27cc077a9134ffd80573d3aec20ea316756f"),
            ("factored-svd", "3bafda1c27041b699863ff7c30364bcf2d5e504659c3186baccb157fbe049f22"),
            ("values-svd", "81e83c93f1e8ff062c19a637acad737afcb58c6f68abec92eed5ae0847241f11"),
            ("cli", "1ff0828c06eee6005d4eb8ef0ed525131eaf57f2014c90974993848327b3a822"),
        ],
    },
}


def check_pins(renderer, case):
    """``renderer``'s digests of ``case`` are the pins `pin` picks for them."""
    # with another numpy, check only the renders whose files other than the
    # spectra involve no BLAS or LAPACK call, and leave out their spectra
    if not LAPACK_PINNED and not (case in LAYOUTS or renderer == "direct"):
        pytest.skip("these pins were recorded with numpy 2.4.6's OpenBLAS")
    got = {f: d for f, pairs in rendered()[case].items() for r, d in pairs if r == renderer}
    want = {f: pin(renderer, case, f)[1] for f in PINS[case]}
    if not LAPACK_PINNED:
        got, want = ({f: d for f, d in x.items() if layer_of(f) != "spectrum"} for x in (got, want))
    assert got == want, f"{renderer} renders the code from before: {RENDERERS[renderer].why}"


def _pin_test(renderer, cases):
    if isinstance(cases, str):
        def test():
            check_pins(renderer, cases)
        return test

    @pytest.mark.parametrize("case", cases)
    def test(case):
        check_pins(renderer, case)
    return test


globals().update({name: _pin_test(*spec) for name, spec in PIN_TESTS.items()})


def test_pin_table_matches_the_renders():
    """Each file's pins name known renderers in their order, ending with the
    CLI's; the renders write exactly the pinned cases and files; and some
    render checks every pin."""
    table = rendered()
    assert table.keys() == PINS.keys()
    for case, files in PINS.items():
        assert files.keys() == table[case].keys(), case
        for f, pairs in files.items():
            names = [r for r, _ in pairs]
            assert names == [r for r in ORDER if r in names] and names[-1] == "cli", (case, f)
    checked = {(case, f, pin(r, case, f)) for case, files in table.items() for f, pairs in files.items() for r, _ in pairs}
    pinned = {(case, f, p) for case, files in PINS.items() for f, pairs in files.items() for p in pairs}
    assert pinned - checked == set()


def test_sweep_sigma1_agrees_with_full_svd():
    for family, rule in SWEEPS:
        got = cli_sweep(family, rule)
        want = with_full_svd_sigma1(got)
        assert len(got.rows) == len(SWEEP_NS)
        for row, ref in zip(got.rows, want.rows):
            assert row.n == ref.n
            assert abs(row.spectral_norm - ref.spectral_norm) <= 1e-12 * ref.spectral_norm


def test_moved_values_agree_with_the_values_svd():
    """The spectra and sweep σ₁ that the symmetric eigensolver moved stay
    within 1e-12·σ₁ of the values-only SVD's."""
    old = RENDERERS["values-svd"].old
    study = fig2_study()
    channels = [si_matrix(generate_nested(20, 16, 3), float(RHO))]
    channels += [si_matrix(layout, study.rho) for layout in study.layouts.values()]
    for channel in channels:
        got, want = svd_spectrum(channel).sigmas, old["spectrum"](channel).sigmas
        assert np.max(np.abs(got - want)) <= 1e-12 * want[0]
    for family, rule in SWEEPS:
        got = cli_sweep(family, rule)
        want = old["sigma1"](got)
        assert len(got.rows) == len(want.rows) == len(SWEEP_NS)
        for row, ref in zip(got.rows, want.rows):
            assert abs(row.spectral_norm - ref.spectral_norm) <= 1e-12 * ref.spectral_norm


if __name__ == "__main__":
    print("{")
    for case, files in render_all().items():
        print(f'    "{case}": {{')
        for f, pairs in files.items():
            print(f'        "{f}": [', *(f'            ("{r}", "{d}"),' for r, d in pairs), "        ],", sep="\n")
        print("    },")
    print("}")
