import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fdarray.cli import build_parser, main
from fdarray.files import load_layout, load_matrix_csv, load_matrix_json, save_layout
from fdarray.geometry import FAMILIES, FamilySpec, build_family_layout, generate_nested, generate_partitioned
from fdarray.si_model import si_matrix
from fdarray.spectral import svd_spectrum


def run(*argv):
    return main(list(argv))


def write_layout_json(path, tx, rx, label=""):
    path.write_text(
        json.dumps({"label": label, "tx": tx, "rx": rx, "units": "half-wavelength"})
    )


def test_geometry_command_fig2_nested(tmp_path, capsys):
    out = tmp_path / "nested.json"
    code = run("geometry", "--family", "nested", "--m1", "6", "--m2", "5",
               "--delta3", "3", "-o", str(out))
    assert code == 0
    layout = load_layout(out)
    ref = generate_nested(6, 5, 3)
    assert layout.tx.positions == ref.tx.positions
    assert layout.rx.positions == ref.rx.positions
    sketch = capsys.readouterr().out.strip()
    assert sketch.startswith("RRRRRR") and len(sketch) == 44


def test_geometry_command_partitioned_reference(tmp_path):
    out = tmp_path / "p.json"
    assert run("geometry", "--family", "partitioned", "--n", "11", "--delta1", "0",
               "-o", str(out)) == 0
    layout = load_layout(out)
    assert [int(p) for p in layout.rx] == list(range(11))
    assert [int(p) for p in layout.tx] == list(range(11, 22))


def test_geometry_missing_family_flag_exits_2(tmp_path, capsys):
    code = run("geometry", "--family", "partitioned", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "--n" in capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_geometry_command_matches_solved_family_layout(tmp_path, family):
    n = 7
    layout, params, feasible = build_family_layout(family, n, 40.0)
    assert feasible
    argv = ["geometry", "--family", family]
    if "n" in FAMILIES[family].params:
        argv += ["--n", str(n)]
    for name, value in params:
        argv += [f"--{name}", str(value)]
    out, want = tmp_path / "cli.json", tmp_path / "api.json"
    assert run(*argv, "-o", str(out)) == 0
    save_layout(layout, want)
    assert out.read_bytes() == want.read_bytes()


FOREIGN_FLAGS = [
    (family, param)
    for family, spec in FAMILIES.items()
    for param in dict.fromkeys(p for other in FAMILIES.values() for p in other.params)
    if param not in spec.params
]


@pytest.mark.parametrize("family, param", FOREIGN_FLAGS)
def test_geometry_rejects_a_flag_the_family_does_not_take(tmp_path, capsys, family, param):
    own = [x for p in FAMILIES[family].params for x in (f"--{p}", "2")]
    out = tmp_path / "x.json"
    assert run("geometry", "--family", family, *own, f"--{param}", "5", "-o", str(out)) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"does not take --{param}")
    assert not out.exists()


def test_missing_required_flag_is_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("geometry", "--family", "partitioned", "--n", "3", "--delta1", "0")
    assert exc.value.code == 2


def test_svd_command_closed_form_values(tmp_path):
    geo = tmp_path / "i.json"
    assert run("geometry", "--family", "interleaved", "--n", "2", "--delta2", "1",
               "-o", str(geo)) == 0
    spec = tmp_path / "spec.csv"
    assert run("svd", "--geometry", str(geo), "--rho", "1.0", "-o", str(spec)) == 0
    rows = [line.split(",") for line in spec.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [1, 2]
    assert abs(float(rows[0][1]) - 1.72077) < 1e-4
    assert abs(float(rows[1][1]) - 0.38742) < 1e-4


def test_svd_requires_exactly_one_source(tmp_path):
    assert run("svd", "-o", str(tmp_path / "s.csv")) == 2
    geo = tmp_path / "g.json"
    write_layout_json(geo, tx=[1], rx=[0])
    assert run("svd", "--geometry", str(geo), "--matrix", str(geo),
               "-o", str(tmp_path / "s.csv")) == 2


def test_svd_from_matrix_files(tmp_path):
    geo = tmp_path / "g.json"
    write_layout_json(geo, tx=[2, 3], rx=[0, 1])
    mat_csv = tmp_path / "m.csv"
    mat_json = tmp_path / "m.json"
    assert run("si", "--geometry", str(geo), "-o", str(mat_csv)) == 0
    assert run("si", "--geometry", str(geo), "--format", "json", "-o", str(mat_json)) == 0
    assert np.array_equal(
        np.asarray(load_matrix_csv(mat_csv), dtype=complex), load_matrix_json(mat_json)
    )
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run("svd", "--matrix", str(mat_csv), "-o", str(s1)) == 0
    assert run("svd", "--matrix", str(mat_json), "-o", str(s2)) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_pipeline_round_trip_matches_in_process(tmp_path):
    geo = tmp_path / "nested.json"
    mat = tmp_path / "si.csv"
    spec = tmp_path / "spec.csv"
    for cmd in (
        ("geometry", "--family", "nested", "--m1", "6", "--m2", "5", "--delta3", "3",
         "-o", str(geo)),
        ("si", "--geometry", str(geo), "--rho", "0.2", "-o", str(mat)),
        ("svd", "--geometry", str(geo), "--rho", "0.2", "-o", str(spec)),
    ):
        assert run(*cmd) == 0

    expected = svd_spectrum(si_matrix(generate_nested(6, 5, 3), 0.2))
    got = [float(line.split(",")[1]) for line in spec.read_text().splitlines()[1:]]
    assert got == [float(s) for s in expected.sigmas]

    loaded = load_matrix_csv(mat)
    assert np.array_equal(loaded, si_matrix(generate_nested(6, 5, 3), 0.2).h.real)


def test_geometry_output_feeds_every_command(tmp_path):
    geo = tmp_path / "g.json"
    assert run("geometry", "--family", "nested", "--m1", "3", "--m2", "2",
               "--delta3", "2", "-o", str(geo)) == 0
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == 0
    assert run("svd", "--geometry", str(geo), "-o", str(tmp_path / "s.csv")) == 0
    assert run("beampattern", "--geometry", str(geo), "--grid-size", "65",
               "-o", str(tmp_path / "b.csv")) == 0
    assert run("coarray", "--geometry", str(geo), "-o", str(tmp_path / "c.csv")) == 0


def test_command_idempotence(tmp_path):
    geo1, geo2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (geo1, geo2):
        assert run("geometry", "--family", "interleaved", "--n", "5", "--delta2", "2",
                   "-o", str(path)) == 0
    assert geo1.read_bytes() == geo2.read_bytes()

    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for path in (m1, m2):
        assert run("si", "--geometry", str(geo1), "--rho", "0.3", "-o", str(path)) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_coarray_command_reference_rows(tmp_path):
    geo = tmp_path / "g.json"
    write_layout_json(geo, tx=[2, 3], rx=[0, 1])
    out = tmp_path / "ca.csv"
    assert run("coarray", "--geometry", str(geo), "-o", str(out)) == 0
    assert out.read_text() == "sum,multiplicity\n2,1\n3,2\n4,1\n"


def test_beampattern_command(tmp_path):
    geo = tmp_path / "g.json"
    write_layout_json(geo, tx=[20, 21], rx=[0, 1, 2, 3])
    out = tmp_path / "bp.csv"
    assert run("beampattern", "--geometry", str(geo), "--side", "rx",
               "--grid-size", "101", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,B" and len(lines) == 102


def test_sweep_command_flags_infeasible_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--family", "partitioned", "--rule", "linear",
               "--coeff", "0.5", "--n-min", "10", "--n-max", "30", "--n-step", "10",
               "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",0") for line in lines[1:])  # feasible == 0


@pytest.mark.parametrize("flag, value", [("--coeff", "inf"), ("--l-max", "nan"), ("--coeff", "nan")])
def test_sweep_command_rejects_non_finite_rule(tmp_path, capsys, flag, value):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--family", "partitioned", "--rule", "linear", flag, value,
               "-o", str(out)) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_command_range_validation(tmp_path):
    assert run("sweep", "--family", "nested", "--rule", "linear",
               "--n-min", "30", "--n-max", "10", "-o", str(tmp_path / "x.csv")) == 2


@pytest.mark.parametrize("step", ["0", "-10"])
def test_sweep_command_rejects_a_step_below_one(tmp_path, capsys, step):
    out = tmp_path / "x.csv"
    assert run("sweep", "--family", "nested", "--rule", "linear", "--n-step", step, "-o", str(out)) == 2
    assert "--n-step" in capsys.readouterr().err
    assert not out.exists()


def test_fig2_command_bundle(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    assert run("fig2", "--grid-size", "128", "-o", str(out_dir)) == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 9
    for name in ("geometry_nested.json", "beampattern_partitioned.csv", "spectrum_interleaved.csv"):
        assert (out_dir / name).exists()


def test_singular_layout_exits_3(tmp_path, capsys):
    geo = tmp_path / "bad.json"
    write_layout_json(geo, tx=[0, 1], rx=[0])
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == 3
    assert "colocated" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tx, rx, code",
    [
        ([], [0], 2),  # empty side
        ([1, 1], [0], 2),  # duplicate position
        ([None], [0], 2),  # null position
        ([0], [0], 3),  # colocated pair only
        ([0, 0], [0], 2),  # duplicate and colocated: malformed before singular
        ("12", [0], 2),  # a string, not a list of positions
        ([float("inf")], [0], 2),  # written as Infinity
        ([1, float("-inf")], [0], 2),  # written as -Infinity
        ([True], [0], 2),  # a boolean, not a position
        (["1/0"], [0], 2),  # a zero denominator
    ],
)
def test_layout_file_defects_exit_codes(tmp_path, capsys, tx, rx, code):
    geo = tmp_path / "bad.json"
    write_layout_json(geo, tx=tx, rx=rx)
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == code
    assert not (tmp_path / "m.csv").exists()
    # a malformed side is named; a singular layout names the colocated position
    assert ("tx" if code == 2 else "colocated") in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, code",
    [
        ('{"tx": ["1e999999999"], "rx": [0]}', 2),  # a string position
        ('{"tx": [1e999999999], "rx": [0]}', 2),  # a bare JSON number
        ('{"tx": [1e-999999999], "rx": [0]}', 2),  # a denominator of 10**999999999
        ('{"tx": ["0e999999999", 1], "rx": [2]}', 0),  # zero, whatever its exponent
    ],
)
def test_huge_decimal_exponents_are_judged_promptly(tmp_path, document, code):
    # in a child process with a timeout, so that building 10**999999999 fails the test instead of hanging it
    geo = tmp_path / "e.json"
    geo.write_text(document)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "fdarray.cli", "coarray", "--geometry", str(geo), "-o", str(tmp_path / "c.csv")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert "does not fit int64 ticks" in proc.stderr


def test_unparseable_geometry_exits_2(tmp_path):
    geo = tmp_path / "mangled.json"
    geo.write_text("{not json")
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == 2
    assert run("si", "--geometry", str(tmp_path / "missing.json"),
               "-o", str(tmp_path / "m.csv")) == 2


def test_bad_rho_exits_2(tmp_path):
    geo = tmp_path / "g.json"
    write_layout_json(geo, tx=[1], rx=[0])
    assert run("si", "--geometry", str(geo), "--rho", "-1", "-o", str(tmp_path / "m.csv")) == 2


def test_parser_is_built_once_and_keeps_no_state_between_parses():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(
        ["beampattern", "--geometry", "g.json", "--normalized", "--theta-s", "0.5", "-o", "a.csv"]
    )
    second = build_parser().parse_args(["beampattern", "--geometry", "g.json", "-o", "b.csv"])
    assert first.normalized and first.theta_s == 0.5 and first.output == "a.csv"
    assert not second.normalized and second.theta_s == 0.0 and second.output == "b.csv"
    third = build_parser().parse_args(["coarray", "--geometry", "g.json", "-o", "c.csv"])
    assert third.command == "coarray" and not hasattr(third, "normalized")


def test_huge_integer_position_exits_2(tmp_path, capsys):
    # a bare JSON integer past int()'s 4300-digit limit; json.dumps cannot write one
    geo = tmp_path / "big.json"
    geo.write_text('{"tx": [1' + "0" * 4999 + '], "rx": [0]}')
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == 2
    err = capsys.readouterr().err
    assert "4300 digits" in err
    # the message names the file and the tick limit, not an interpreter setting
    assert str(geo) in err and "2**62" in err
    assert "set_int_max_str_digits" not in err


def test_huge_exponent_decimal_position_exits_2(tmp_path, capsys):
    # an exponent past int()'s digit limit fails in the decimal parser, not as an integer
    geo = tmp_path / "exp.json"
    geo.write_text('{"tx": [1.5e1' + "0" * 4999 + '], "rx": [0]}')
    assert run("si", "--geometry", str(geo), "-o", str(tmp_path / "m.csv")) == 2
    err = capsys.readouterr().err
    assert "4300 digits" in err and "integer position" not in err


def exit_code(*argv):
    try:
        return run(*argv)
    except SystemExit as exc:  # argparse exits on a bad or help flag
        return exc.code


def test_geometry_flags_come_from_the_family_table(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "120")  # wide enough that no help text wraps below its flag
    assert exit_code("geometry", "--help") == 0
    flags = re.findall(r"^  --(\w+) [A-Z0-9]+ +(.*)$", capsys.readouterr().out, re.M)
    assert [name for name, _ in flags][:6] == ["n", "delta1", "delta2", "m1", "m2", "delta3"]
    for name, help_text in flags[:6]:
        assert help_text.split()[0].split("/") == [f for f, spec in FAMILIES.items() if name in spec.params]


def test_a_new_family_is_one_table_row(tmp_path, monkeypatch):
    # a row with a parameter name no other family has gets its own --flag
    fake = FamilySpec(lambda n, gap: generate_partitioned(n, gap), ("n", "gap"), lambda n, l_target: (1, False))
    monkeypatch.setitem(FAMILIES, "fake", fake)
    build_parser.cache_clear()
    try:
        out = tmp_path / "fake.json"
        assert exit_code("geometry", "--family", "fake", "--n", "3", "--gap", "4", "-o", str(out)) == 0
        assert exit_code("geometry", "--family", "fake", "--n", "3", "-o", str(out)) == 2
    finally:
        build_parser.cache_clear()
    assert load_layout(out) == generate_partitioned(3, 4)
