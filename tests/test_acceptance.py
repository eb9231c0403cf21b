"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each criterion is asserted at its stated tolerance and, where a
budget applies, its runtime.
"""

import math
import time

import numpy as np

from oracles import (
    enumerate_sum_coarray,
    fraction_distances,
    interleaved_closed_form_n2,
    singular_values_2x2,
    singular_values_3x3,
)

from fdarray.cli import main as cli_main
from fdarray.experiments import ApertureRule, coarray_scaling, fig2_study, scaling_sweep
from fdarray.beampattern import beampattern, grating_lobes, main_lobe_width
from fdarray.geometry import (
    generate_interleaved,
    generate_nested,
    generate_partitioned,
)
from fdarray.si_model import distance_matrix, is_toeplitz, si_matrix, sign_pattern
from fdarray.spectral import svd_spectrum


def _report(num, name, body, budget=None):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s budget"
    except AssertionError:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS  [{elapsed:.2f}s]")


def test_criterion_1_closed_form_oracle():
    def body():
        for delta2 in range(1, 11):
            for rho in (0.2, 1.0, 3.0):
                spec = svd_spectrum(si_matrix(generate_interleaved(2, delta2), rho))
                expected = interleaved_closed_form_n2(rho, delta2)
                for got, ref in zip(spec.sigmas, expected):
                    assert abs(got - ref) <= 1e-9 * ref

    _report(1, "closed-form interleaved n=2 singular values", body, budget=1.0)


def test_criterion_2_toeplitz_structure():
    def body():
        for n in range(2, 33):
            for delta1 in range(0, 6):
                lay = generate_partitioned(n, delta1)
                assert is_toeplitz(distance_matrix(lay))
                assert is_toeplitz(si_matrix(lay, 1.0))
            for delta2 in range(1, 6):
                lay = generate_interleaved(n, delta2)
                assert is_toeplitz(distance_matrix(lay))
                assert is_toeplitz(si_matrix(lay, 1.0))
        assert not is_toeplitz(si_matrix(generate_nested(6, 5, 3), 1.0))

    _report(2, "exact Toeplitz structure of uniform families", body, budget=5.0)


def test_criterion_3_sign_structure():
    def body():
        for n in range(2, 33):
            for delta1 in range(0, 6):
                ch = si_matrix(generate_partitioned(n, delta1), 1.0)
                assert sign_pattern(ch) == "alternating"
                for i, row in enumerate(fraction_distances(ch.layout)):
                    for j, d in enumerate(row):
                        assert np.sign(ch.h[i, j].real) == (-1.0) ** int(d)
            for delta2 in range(1, 6):
                ch = si_matrix(generate_interleaved(n, delta2), 1.0)
                assert sign_pattern(ch) == "uniform"

    _report(3, "alternating/uniform sign patterns", body)


def test_criterion_4_rank1_limit():
    def body():
        gaps = [0, 1, 10, 100, 1000]
        ratios = []
        for delta1 in gaps:
            h = si_matrix(generate_partitioned(2, delta1), 1.0).h
            s1, s2 = singular_values_2x2(h)
            got = svd_spectrum(h)
            assert abs(got.sigmas[0] - s1) <= 1e-9 * s1
            assert abs(got.sigmas[1] - s2) <= 1e-9 * s1
            ratios.append(got.sigmas[1] / got.sigmas[0])
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-2

    _report(4, "partitioned n=2 rank-1 limit", body)


def test_criterion_5_reference_study_reproduction():
    def body():
        study = fig2_study(rho=0.2)
        part = study.spectra["partitioned"].sigmas
        inter = study.spectra["interleaved"].sigmas
        nest = study.spectra["nested"].sigmas
        # (a) nested tail strictly between the extremes at indices >= 6
        for k in range(5, 11):
            assert part[k] < nest[k] < inter[k]
        # (b) interleaved keeps the fattest tail relative to its peak
        tail = {fam: spec.sigmas[10] / spec.sigmas[0] for fam, spec in study.spectra.items()}
        assert tail["interleaved"] > tail["nested"]
        assert tail["interleaved"] > tail["partitioned"]
        # (c) beampatterns: nested main lobe narrower than partitioned,
        # nested unambiguous, interleaved grating at +/- arcsin(0.5)
        widths = {fam: main_lobe_width(curve) for fam, curve in study.beampatterns.items()}
        assert widths["nested"].width < widths["partitioned"].width
        step = study.beampatterns["nested"].grid_step
        assert grating_lobes(study.beampatterns["nested"], 0.5) == []
        lobes = grating_lobes(study.beampatterns["interleaved"], 0.5)
        target = math.asin(0.5)
        assert any(abs(a - target) <= step for a in lobes)
        assert any(abs(a + target) <= step for a in lobes)

    _report(5, "three-family reference study (rho=0.2)", body, budget=10.0)


def test_criterion_6_aperture_scaling_trends():
    def body():
        ns = range(10, 101, 10)
        quad = ApertureRule(kind="quadratic")
        lin = ApertureRule(kind="linear")
        for family in ("partitioned", "interleaved", "nested"):
            norms = [row.spectral_norm for row in scaling_sweep(family, ns, quad).rows]
            past20 = norms[1:]
            assert all(a >= b - 1e-12 for a, b in zip(past20, past20[1:])), (
                f"{family}: quadratic-rule norms not non-increasing: {past20}"
            )
            norms = [row.spectral_norm for row in scaling_sweep(family, ns, lin).rows]
            assert max(norms) / min(norms) <= 3.0, (
                f"{family}: linear-rule spread {max(norms) / min(norms):.2f} > 3"
            )

    _report(6, "spectral-norm scaling trends", body, budget=60.0)


def test_criterion_7_coarray_quadratic_scaling():
    def body():
        table = coarray_scaling(range(10, 61))
        assert 1.7 <= table.slope <= 2.3, f"slope {table.slope:.3f} outside [1.7, 2.3]"
        for row in table.rows:
            lay = generate_nested(row.m1, row.m2, row.delta3)
            _, _, best = enumerate_sum_coarray(list(lay.tx), list(lay.rx))
            assert row.contiguous_len == best

    _report(7, "co-array quadratic scaling", body, budget=30.0)


def test_criterion_8_svd_contract_suite():
    def body():
        rng = np.random.default_rng(2024)
        for i in range(500):
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 65))
            h = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            spec = svd_spectrum(h)
            assert np.all(np.diff(spec.sigmas) <= 0)
            assert abs(np.sum(spec.sigmas**2) - spec.frob**2) <= 1e-9 * spec.frob**2
            assert spec.recon_error <= 1e-9 * spec.sigmas[0]
        for _ in range(100):
            h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ref = singular_values_2x2(h2)
            got = svd_spectrum(h2).sigmas
            assert np.all(np.abs(got - ref) <= 1e-9 * ref[0])
            h3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ref = singular_values_3x3(h3)
            got = svd_spectrum(h3).sigmas
            assert np.all(np.abs(got - ref) <= 1e-9 * ref[0])

    _report(8, "SVD numerical contract suite", body)


def test_criterion_9_cli_round_trip(tmp_path):
    def body():
        outputs = []
        for run in ("one", "two"):
            base = tmp_path / run
            base.mkdir()
            geo = base / "nested.json"
            mat = base / "si.csv"
            spec = base / "spec.csv"
            assert cli_main(["geometry", "--family", "nested", "--m1", "6", "--m2", "5",
                             "--delta3", "3", "-o", str(geo)]) == 0
            assert cli_main(["si", "--geometry", str(geo), "--rho", "0.2",
                             "-o", str(mat)]) == 0
            assert cli_main(["svd", "--geometry", str(geo), "--rho", "0.2",
                             "-o", str(spec)]) == 0
            outputs.append((geo.read_bytes(), mat.read_bytes(), spec.read_bytes()))
        assert outputs[0] == outputs[1]

        in_process = svd_spectrum(si_matrix(generate_nested(6, 5, 3), 0.2))
        lines = outputs[0][2].decode().splitlines()[1:]
        got = [float(line.split(",")[1]) for line in lines]
        assert got == [float(s) for s in in_process.sigmas]

    _report(9, "CLI byte-deterministic round trip", body)
