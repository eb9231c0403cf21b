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
sweep rows with every σ₁ taken from `svd_spectrum`, which shows that layout
building, synthesis and the CSV format are byte-unchanged. ``GOLDEN_SWEEP``
pins the CLI ``sweep`` bytes of the σ₁-only code, and every CLI σ₁ must lie
within a relative 1e-12 of the full-SVD σ₁.

The ``si`` and ``coarray`` digests involve no LAPACK call and hold
everywhere. The bytes of ``svd`` and ``sweep`` outputs also depend on the
LAPACK build, its CPU kernel and the BLAS thread count: the commands run in
a child interpreter with one BLAS thread, and those pins, taken with numpy
2.4.6's bundled OpenBLAS 0.3.31 on an x86-64 Xeon, are checked only under
that numpy version.

Print the digests of the code on ``PYTHONPATH`` with::

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fdarray
from fdarray.cli import main as cli_main
from fdarray.experiments import ApertureRule, build_family_layout, scaling_sweep, write_sweep_csv
from fdarray.geometry import FullDuplexLayout, generate_nested, save_layout
from fdarray.si_model import si_matrix
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


def layout_digests(name, workdir) -> dict:
    """Digests of the si (CSV, JSON), svd and coarray outputs of one layout."""
    d = Path(workdir)
    geo = d / "geometry.json"
    LAYOUTS[name](geo)
    _run(["si", "--geometry", geo, "--rho", RHO, "--format", "csv", "-o", d / "si.csv"])
    _run(["si", "--geometry", geo, "--rho", RHO, "--format", "json", "-o", d / "si.json"])
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
    """A sweep result with each row's σ₁ taken from the full SVD of its channel."""
    rows = []
    for row in result.rows:
        layout = build_family_layout(result.family, row.n, row.l_target)[0]
        sigma1 = float(svd_spectrum(si_matrix(layout, result.rho)).sigmas[0])
        rows.append(dataclasses.replace(row, spectral_norm=sigma1))
    return dataclasses.replace(result, rows=tuple(rows))


def full_svd_sweep_digest(family, rule, workdir) -> str:
    out = Path(workdir) / "sweep.csv"
    write_sweep_csv(with_full_svd_sigma1(cli_sweep(family, rule)), out)
    return _sha(out)


def digests(cases) -> dict:
    """Digests of the named cases: layout names, "family/rule" sweeps and
    their full-SVD renderings "full-svd:family/rule"."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            sub = Path(tmp) / case.replace("/", "_").replace(":", "_")
            sub.mkdir()
            if case in LAYOUTS:
                out[case] = layout_digests(case, sub)
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


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_layout_outputs_match_golden_bytes(name):
    got, want = child_digests(name), GOLDEN[name]
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


def test_sweep_sigma1_agrees_with_full_svd():
    for family, rule in SWEEPS:
        got = cli_sweep(family, rule)
        want = with_full_svd_sigma1(got)
        assert len(got.rows) == len(SWEEP_NS)
        for row, ref in zip(got.rows, want.rows):
            assert row.n == ref.n
            assert abs(row.spectral_norm - ref.spectral_norm) <= 1e-12 * ref.spectral_norm


if __name__ == "__main__":
    sweeps = [f"{pre}{fam}/{rule}" for pre in ("", FULL_SVD) for fam, rule in SWEEPS]
    cases = sys.argv[1:] or sorted(LAYOUTS) + sweeps
    json.dump(digests(cases), sys.stdout, indent=4)
    print()
