"""The benchmark's four workloads: inputs from a seed, the timed op, its
oracle check, and its replay as spanned layer calls.

Each workload builds a fixed list of ops. The seed draws only properties
that leave the amount of work unchanged (op order, rho, an integer
translation, the steering angle), so every seed runs the same sizes.

An op is timed as one call into fdarray's public API (or, for ``coarray``
and ``analyze``, the short sequence of public calls that makes up one
study). ``replay`` makes the same public layer calls one by one through a
tracer, so a traced run can split op time by layer; its result must match
the untraced op's.
"""

import contextlib
import hashlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import fdarray as fd
from fdarray import cli as fd_cli

import checks

FAMILIES = ("partitioned", "interleaved", "nested")
SWEEP_NS = range(10, 201, 10)
ANALYZE_NS = (100, 200, 300)
ANALYZE_GRID = 16384
CLI_GRID = 4096
EFFECTIVE_RANK_EPS = 1e-2
GRATING_TOL_DB = 0.5
MAX_OFFSET = 10**6


@dataclass
class Op:
    key: str
    kind: str
    args: dict
    checked: bool = False
    summary: object = None
    facts: dict = field(default_factory=dict)


class Direct:
    """Call hook for the timed op: calls straight through, no probes."""

    @staticmethod
    def call(name, attrs, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def probe(name, attrs, fn, *args, **kwargs):
        return None


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def params_dict(n, params):
    return {"n": n, **dict(params)}


def translate(layout, offset):
    return fd.FullDuplexLayout(
        tx=layout.tx.shifted(offset), rx=layout.rx.shifted(offset), label=layout.label
    )


def entries(layout):
    return len(layout.tx) * len(layout.rx)


def probe_si(hook, layout, rho):
    """distance_matrix probe on the layout, then the si_matrix call itself."""
    hook.probe("si_model.distance_matrix", {"entries": entries(layout)}, fd.distance_matrix, layout)
    return hook.call("si_model.si_matrix", {"entries": entries(layout)}, fd.si_matrix, layout, rho)


class Workload:
    name = ""
    # True when an op is one experiments call (scaling_sweep) whose own
    # orchestration is left over once its replayed child calls are taken out.
    orchestrated = False

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.ops = self.build()

    def build(self):
        raise NotImplementedError

    def order(self):
        """Op order for the next pass."""
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        raise NotImplementedError

    def summary(self, op, result):
        """Compact, comparable form of a result; equal summaries mean equal outputs."""
        raise NotImplementedError

    def check(self, op, result):
        """Oracle check of a result; returns mismatch messages."""
        raise NotImplementedError

    def replay(self, op, hook):
        raise NotImplementedError

    def untraced_summary(self, op, result):
        """What the replay of ``op`` must reproduce."""
        return self.summary(op, result)

    def replay_summary(self, op, replayed):
        return self.summary(op, replayed)

    def alloc_cases(self):
        """(si_layout_and_rho, beampattern_args) for the tracemalloc pass, or None."""
        return None, None

    def counters(self):
        return {}


# --- sweep ------------------------------------------------------------------


class Sweep(Workload):
    """scaling_sweep(family, [N], rule, rho): the paper's headline study."""

    name = "sweep"
    orchestrated = True

    def build(self):
        self.sigma_cache = {}
        return [
            Op(f"{fam}/{kind}/N={n}", "sweep", {"family": fam, "rule": kind, "n": n, "rho": self.rng.uniform(0.1, 1.0)})
            for fam in FAMILIES
            for kind in ("linear", "quadratic")
            for n in SWEEP_NS
        ]

    def run(self, op):
        a = op.args
        return fd.scaling_sweep(a["family"], [a["n"]], fd.ApertureRule(kind=a["rule"]), a["rho"])

    def summary(self, op, result):
        row = result.rows[0]
        return (row.spectral_norm, row.l_actual, tuple(row.params), row.feasible)

    def check(self, op, result):
        a = op.args
        if len(result.rows) != 1 or result.rows[0].n != a["n"] or result.rows[0].family != a["family"]:
            return [f"{op.key}: sweep returned the wrong rows"]
        row = result.rows[0]
        return checks.check_sweep_row(
            op.key, a["family"], a["n"], a["rho"], dict(row.params), row.l_actual, row.spectral_norm, self.sigma_cache
        )

    def replay(self, op, hook):
        a = op.args
        rule = fd.ApertureRule(kind=a["rule"])
        layout, params, feasible = hook.call(
            "geometry.build_family_layout", {"positions": 2 * a["n"]},
            fd.build_family_layout, a["family"], a["n"], rule.target(a["n"]),
        )
        h = probe_si(hook, layout, a["rho"])
        sigma = hook.call("spectral.spectral_norm", {"entries": entries(layout)}, fd.spectral_norm, h)
        return (sigma, int(layout.joint_aperture), tuple(params), feasible)

    def replay_summary(self, op, replayed):
        return replayed

    def alloc_cases(self):
        layout, _, _ = fd.build_family_layout("nested", max(SWEEP_NS), fd.ApertureRule(kind="quadratic").target(max(SWEEP_NS)))
        return (layout, 1.0), None


# --- coarray ----------------------------------------------------------------


def coarray_op(hook, family, n, offset):
    """One coarray_scaling row (quadratic rule 0.26*N**2), translated."""
    target = fd.ApertureRule(kind="quadratic").target(n)
    layout, params, _ = hook.call(
        "geometry.build_family_layout", {"positions": 2 * n}, fd.build_family_layout, family, n, target
    )
    moved = hook.call("geometry.shifted", {"positions": 2 * n}, translate, layout, offset)
    result = hook.call("coarray.sum_coarray", {"pairs": entries(moved)}, fd.sum_coarray, moved)
    return params, moved, result


class Coarray(Workload):
    """sum_coarray of translated family layouts under the quadratic rule."""

    name = "coarray"

    def build(self):
        return [
            Op(f"{fam}/N={n}", "coarray", {"family": fam, "n": n, "offset": self.rng.randint(0, MAX_OFFSET)})
            for fam in FAMILIES
            for n in SWEEP_NS
        ]

    def run(self, op):
        return coarray_op(Direct, op.args["family"], op.args["n"], op.args["offset"])

    def summary(self, op, result):
        params, moved, co = result
        # Tuples, not a digest: hashing tens of thousands of Fractions per op
        # would cost more than comparing them.
        return (tuple(params), moved.tx.positions, moved.rx.positions, co.sums, co.multiplicities, co.contiguous_len)

    def check(self, op, result):
        a = op.args
        params, moved, co = result
        tx, rx = checks.family_positions(a["family"], params_dict(a["n"], params), offset=a["offset"])
        errors = checks.check_positions(op.key + " tx", moved.tx.positions, tx)
        errors += checks.check_positions(op.key + " rx", moved.rx.positions, rx)
        if errors:
            return errors
        want = checks.coarray(tx, rx)
        errors = checks.check_coarray(op.key, co.sums, co.multiplicities, co.contiguous_len, want)
        if a["family"] == "nested":
            op.facts["collapsed"] = want[2] < 2 * a["n"]
        return errors

    def replay(self, op, hook):
        return coarray_op(hook, op.args["family"], op.args["n"], op.args["offset"])

    def counters(self):
        return {"coarray.collapsed_rows": sum(1 for op in self.ops if op.facts.get("collapsed"))}


# --- analyze ----------------------------------------------------------------


def analyze_op(hook, layout, rho, theta_s):
    """One single-layout study: SI, full spectrum, structure, beampattern, lobes."""
    e = entries(layout)
    h = probe_si(hook, layout, rho)
    spec = hook.call("spectral.svd_spectrum", {"entries": e}, fd.svd_spectrum, h)
    rank = hook.call("spectral.effective_rank", {}, fd.effective_rank, spec, EFFECTIVE_RANK_EPS)
    sign = hook.call("si_model.sign_pattern", {"entries": e}, fd.sign_pattern, h)
    dmat = hook.call("si_model.distance_matrix", {"entries": e}, fd.distance_matrix, layout)
    toe_d = hook.call("si_model.is_toeplitz", {"entries": e}, fd.is_toeplitz, dmat)
    toe_h = hook.call("si_model.is_toeplitz", {"entries": e}, fd.is_toeplitz, h)
    curve = hook.call(
        "beampattern.beampattern", {"samples": ANALYZE_GRID * len(layout.rx)},
        fd.beampattern, layout.rx, theta_s, ANALYZE_GRID,
    )
    width = hook.call("beampattern.main_lobe_width", {}, fd.main_lobe_width, curve)
    lobes = hook.call("beampattern.grating_lobes", {}, fd.grating_lobes, curve, GRATING_TOL_DB)
    return {
        "h": np.asarray(h.h), "sigmas": np.asarray(spec.sigmas), "frob": spec.frob,
        "recon": spec.recon_error, "rank": rank, "sign": sign, "toe_d": toe_d, "toe_h": toe_h,
        "thetas": np.asarray(curve.thetas), "gains": np.asarray(curve.gains_db),
        "width": (width.width, width.method, width.left, width.right), "lobes": list(lobes),
    }


class Analyze(Workload):
    """Full single-layout studies at N = 100, 200 and 300, four layouts."""

    name = "analyze"

    def build(self):
        ops = []
        for fam in FAMILIES + ("nested_thirds",):
            for n in ANALYZE_NS:
                base = "nested" if fam == "nested_thirds" else fam
                layout, params, _ = fd.build_family_layout(base, n, fd.ApertureRule(kind="linear").target(n))
                offset = self.rng.randint(0, MAX_OFFSET)
                scale = Fraction(1, 3) if fam == "nested_thirds" else 1
                if scale != 1:
                    layout = fd.FullDuplexLayout(tx=layout.tx.scaled(scale), rx=layout.rx.scaled(scale), label=layout.label)
                args = {
                    "family": base, "n": n, "params": params_dict(n, params), "scale": scale,
                    "offset": offset, "rho": self.rng.uniform(0.1, 1.0),
                    "theta_s": self.rng.uniform(-math.pi / 3, math.pi / 3),
                    "layout": translate(layout, offset),
                }
                ops.append(Op(f"{fam}/N={n}", "analyze", args))
        return ops

    def run(self, op):
        a = op.args
        return analyze_op(Direct, a["layout"], a["rho"], a["theta_s"])

    def summary(self, op, r):
        return digest(r["h"], r["sigmas"], r["frob"], r["recon"], r["rank"], r["sign"], r["toe_d"], r["toe_h"], r["gains"], r["width"], r["lobes"])

    def check(self, op, r):
        a = op.args
        tx, rx = checks.family_positions(a["family"], a["params"], offset=a["offset"], scale=a["scale"])
        layout = a["layout"]
        errors = checks.check_positions(op.key + " tx", layout.tx.positions, tx)
        errors += checks.check_positions(op.key + " rx", layout.rx.positions, rx)
        if errors:
            return errors
        h_ref, d, denom = checks.channel(tx, rx, a["rho"])
        s_ref = checks.sigmas(h_ref)
        frob2 = float(np.sum(np.abs(h_ref) ** 2))
        if np.max(np.abs(r["h"] - h_ref)) > checks.RTOL * np.max(np.abs(h_ref)):
            errors.append(f"{op.key}: SI entries differ from rho*exp(j*pi*d)/d")
        if not checks.close(float(np.sum(r["sigmas"] ** 2)), frob2, frob2):
            errors.append(f"{op.key}: sum of sigma^2 differs from ||H||_F^2")
        errors += checks.check_spectrum(op.key, r["sigmas"], s_ref)
        if r["recon"] > checks.RTOL * s_ref[0]:
            errors.append(f"{op.key}: reconstruction error {r['recon']}")
        lo = np.count_nonzero(s_ref >= EFFECTIVE_RANK_EPS * s_ref[0] * (1 + 1e-9))
        hi = np.count_nonzero(s_ref >= EFFECTIVE_RANK_EPS * s_ref[0] * (1 - 1e-9))
        if not lo <= r["rank"] <= hi:
            errors.append(f"{op.key}: effective rank {r['rank']}, expected {lo}")
        sign = checks.expected_sign_pattern(d, denom)
        if r["sign"] != sign:
            errors.append(f"{op.key}: sign pattern {r['sign']!r}, expected {sign!r}")
        toe = checks.expected_toeplitz(d)
        if r["toe_d"] != toe or r["toe_h"] != toe:
            errors.append(f"{op.key}: Toeplitz flags {r['toe_d']}/{r['toe_h']}, expected {toe}")
        if r["thetas"].size != ANALYZE_GRID:
            return errors + [f"{op.key}: beampattern has {r['thetas'].size} samples"]
        errors += checks.check_curve(op.key, rx, r["thetas"], r["gains"], a["theta_s"])
        expected = None
        if a["family"] != "nested":
            spacing = 1 if a["family"] == "partitioned" else 2 * a["params"]["delta2"]
            expected = checks.uniform_grating_count(spacing, a["theta_s"])
        width, method, left, right = r["width"]
        errors += checks.check_lobes(
            op.key, r["thetas"], r["gains"], a["theta_s"], width, left, right, method, r["lobes"], GRATING_TOL_DB, expected
        )
        return errors

    def replay(self, op, hook):
        a = op.args
        return analyze_op(hook, a["layout"], a["rho"], a["theta_s"])

    def alloc_cases(self):
        big = [op for op in self.ops if op.args["n"] == max(ANALYZE_NS)][0].args
        return (big["layout"], big["rho"]), (big["layout"].rx, big["theta_s"], ANALYZE_GRID)


# --- cli --------------------------------------------------------------------

CLI_LAYOUTS = (
    ("nested", {"m1": 45, "m2": 45, "delta3": 2}),
    ("partitioned", {"n": 120, "delta1": 10}),
    ("interleaved", {"n": 60, "delta2": 2}),
)
CLI_RATIONAL = {"m1": 40, "m2": 40, "delta3": 1}
CLI_RATIONAL_SCALE = Fraction(1, 2)
CLI_RATIONAL_OFFSET = Fraction(1, 3)
FIG2_LAYOUTS = (
    ("partitioned", {"n": 11, "delta1": 23}),
    ("interleaved", {"n": 11, "delta2": 2}),
    ("nested", {"m1": 6, "m2": 5, "delta3": 3}),
)
CLI_SWEEP_N = range(10, 101, 10)
GENERATORS = {
    "partitioned": (fd.generate_partitioned, ("n", "delta1")),
    "interleaved": (fd.generate_interleaved, ("n", "delta2")),
    "nested": (fd.generate_nested, ("m1", "m2", "delta3")),
}


def generate(family, params):
    fn, names = GENERATORS[family]
    return fn(*(params[k] for k in names))


def per_side(params):
    return params["n"] if "n" in params else params["m1"] + params["m2"]


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class Cli(Workload):
    """In-process fdarray.cli.main commands with file I/O."""

    name = "cli"

    def build(self):
        d = self.workdir
        self.layouts = {}
        ops = []
        for i, (fam, params) in enumerate(CLI_LAYOUTS + (("nested", CLI_RATIONAL),)):
            tag = f"L{i}"
            rational = i == len(CLI_LAYOUTS)
            exact = generate(fam, params)
            if rational:
                exact = fd.FullDuplexLayout(
                    tx=exact.tx.scaled(CLI_RATIONAL_SCALE).shifted(CLI_RATIONAL_OFFSET),
                    rx=exact.rx.scaled(CLI_RATIONAL_SCALE).shifted(CLI_RATIONAL_OFFSET),
                    label=exact.label,
                )
            geo = os.path.join(d, f"{tag}_geometry.json")
            self.layouts[tag] = (fam, params, exact, geo, rational)
            if rational:
                fd.save_layout(exact, geo)
            rho = repr(self.rng.uniform(0.1, 1.0))
            theta_s = repr(self.rng.uniform(-math.pi / 3, math.pi / 3))
            out = lambda name: os.path.join(d, f"{tag}_{name}")
            block = []
            if not rational:
                flags = [x for k, v in params.items() for x in (f"--{k}", str(v))]
                block.append(("geometry", ["geometry", "--family", fam, *flags, "-o", geo], [geo]))
            block += [
                ("si_csv", ["si", "--geometry", geo, "--rho", rho, "--format", "csv", "-o", out("si.csv")], [out("si.csv")]),
                ("si_json", ["si", "--geometry", geo, "--rho", rho, "--format", "json", "-o", out("si.json")], [out("si.json")]),
                ("svd_geometry", ["svd", "--geometry", geo, "--rho", rho, "-o", out("svd_geo.csv")], [out("svd_geo.csv")]),
                ("svd_csv", ["svd", "--matrix", out("si.csv"), "-o", out("svd_csv.csv")], [out("svd_csv.csv")]),
                ("svd_json", ["svd", "--matrix", out("si.json"), "-o", out("svd_json.csv")], [out("svd_json.csv")]),
                ("beampattern", ["beampattern", "--geometry", geo, "--theta-s", theta_s, "-o", out("bp.csv")], [out("bp.csv")]),
                ("coarray", ["coarray", "--geometry", geo, "-o", out("coarray.csv")], [out("coarray.csv")]),
            ]
            ops.append([Op(f"{tag}/{kind}", kind, {"tag": tag, "argv": argv, "outputs": outs, "rho": float(rho), "theta_s": float(theta_s)}) for kind, argv, outs in block])
        fig2_dir = os.path.join(d, "fig2")
        fig2_files = [os.path.join(fig2_dir, f"{kind}_{fam}.{ext}") for fam, _ in FIG2_LAYOUTS for kind, ext in (("geometry", "json"), ("beampattern", "csv"), ("spectrum", "csv"))]
        rho = repr(self.rng.uniform(0.1, 1.0))
        ops.append([Op("fig2", "fig2", {"argv": ["fig2", "--rho", rho, "-o", fig2_dir], "outputs": fig2_files, "rho": float(rho), "dir": fig2_dir})])
        rho = repr(self.rng.uniform(0.1, 1.0))
        sweep_out = os.path.join(d, "sweep.csv")
        ops.append([Op("sweep", "sweep", {"argv": ["sweep", "--family", "nested", "--rule", "quadratic", "--n-max", str(max(CLI_SWEEP_N)), "--rho", rho, "-o", sweep_out], "outputs": [sweep_out], "rho": float(rho)})])
        self.blocks = ops
        self.sigma_cache = {}
        return [op for block in ops for op in block]

    def order(self):
        """Blocks in a fixed order, commands inside a block in a seeded order
        after the commands that write the files the others read.

        The block order stays fixed because it sets how the allocator's heap
        grows: a smaller beampattern before a larger one leaves peak RSS
        about 10% higher than the reverse order.
        """
        out = []
        for block in self.blocks:
            head = [op for op in block if op.kind in ("geometry", "si_csv", "si_json")]
            tail = [op for op in block if op not in head]
            self.rng.shuffle(tail)
            out += head + tail
        return out

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = fd_cli.main(op.args["argv"])
        return code, buf.getvalue()

    def outputs(self, op):
        return [read(p) for p in op.args["outputs"]]

    def summary(self, op, result):
        code, stdout = result
        return digest(code, stdout, *self.outputs(op))

    def positions(self, op):
        """Exact positions as the geometry file states them."""
        _, _, _, geo, _ = self.layouts[op.args["tag"]]
        tx, rx, _ = checks.parse_layout(read(geo).decode())
        return tx, rx

    def check(self, op, result):
        code, stdout = result
        if code != 0:
            return [f"{op.key}: exit code {code}"]
        k, a = op.kind, op.args
        text = [b.decode() for b in self.outputs(op)]
        if k == "fig2":
            return self.check_fig2(op, stdout, text)
        if k == "sweep":
            rows = checks.parse_sweep(text[0])
            if [r[0] for r in rows] != list(CLI_SWEEP_N):
                return [f"{op.key}: sweep rows {[r[0] for r in rows]}"]
            errors = []
            for n, l_actual, family, sigma, params, _ in rows:
                errors += checks.check_sweep_row(f"{op.key} N={n}", family, n, a["rho"], params, l_actual, sigma, self.sigma_cache)
            return errors
        fam, params, exact, geo, rational = self.layouts[a["tag"]]
        tx, rx = self.positions(op)
        if k == "geometry":
            want_tx, want_rx = checks.family_positions(fam, params)
            errors = checks.check_positions(op.key + " tx", tx, want_tx) + checks.check_positions(op.key + " rx", rx, want_rx)
            if checks.parse_layout(text[0])[2] != "half-wavelength" or not stdout.strip():
                errors.append(f"{op.key}: missing units or sketch")
            return errors
        if k in ("si_csv", "si_json"):
            if k == "si_csv":
                got, has_imag = checks.parse_matrix_csv(text[0])
                if has_imag != rational:
                    return [f"{op.key}: complex cells {has_imag}, expected {rational}"]
            else:
                got = checks.parse_matrix_json(text[0])
            want, _, _ = checks.channel(tx, rx, a["rho"])
            if got.shape != want.shape or np.max(np.abs(got - want)) > checks.RTOL * np.max(np.abs(want)):
                return [f"{op.key}: matrix differs from rho*exp(j*pi*d)/d"]
            return []
        if k.startswith("svd"):
            want = checks.sigmas(checks.channel(tx, rx, a["rho"])[0])
            return checks.check_spectrum(op.key, checks.parse_spectrum(text[0]), want)
        if k == "beampattern":
            thetas, gains = checks.parse_curve(text[0])
            if thetas.size != CLI_GRID:
                return [f"{op.key}: {thetas.size} beampattern rows"]
            return checks.check_curve(op.key, rx, thetas, gains, a["theta_s"])
        if k == "coarray":
            sums, mults = checks.parse_coarray(text[0])
            want = checks.coarray(tx, rx)
            if not rational:
                return checks.check_coarray(op.key, sums, mults, want[2], want)
            want_floats = [float(s) for s in want[0]]
            if [float(s) for s in sums] != want_floats or mults != want[1]:
                return [f"{op.key}: co-array of the rational layout differs"]
            return []
        raise ValueError(f"unknown op kind {k!r}")

    def check_fig2(self, op, stdout, text):
        if stdout.split() != op.args["outputs"]:
            return [f"{op.key}: listed files differ"]
        errors = []
        files = dict(zip(op.args["outputs"], text))
        for fam, params in FIG2_LAYOUTS:
            path = lambda kind, ext: files[os.path.join(op.args["dir"], f"{kind}_{fam}.{ext}")]
            tx, rx, _ = checks.parse_layout(path("geometry", "json"))
            want_tx, want_rx = checks.family_positions(fam, params)
            errors += checks.check_positions(f"fig2 {fam} tx", tx, want_tx) + checks.check_positions(f"fig2 {fam} rx", rx, want_rx)
            thetas, gains = checks.parse_curve(path("beampattern", "csv"))
            errors += checks.check_curve(f"fig2 {fam}", rx, thetas, gains, 0.0)
            want = checks.sigmas(checks.channel(tx, rx, op.args["rho"])[0])
            errors += checks.check_spectrum(f"fig2 {fam}", checks.parse_spectrum(path("spectrum", "csv")), want)
        return errors

    # The replay repeats each command's pipeline through the public API
    # and writes to its own files; its outputs must equal the command's.

    def replay(self, op, hook):
        k, a = op.kind, op.args
        hook.call("cli.dispatch", {}, parse_argv, a["argv"])
        dest = [os.path.join(self.workdir, "replay_" + os.path.basename(p)) for p in a["outputs"]]
        if k == "fig2":
            return self.replay_fig2(op, hook)
        if k == "sweep":
            return self.replay_sweep(op, hook, dest[0])
        fam, params, _, geo, _ = self.layouts[a["tag"]]
        if k == "geometry":
            layout = hook.call("geometry.generate", {"positions": 2 * per_side(params)}, generate, fam, params)
            io_write(hook, "io.save_layout", fd.save_layout, layout, dest[0])
            sketch = hook.call("geometry.ascii_sketch", {}, fd.ascii_sketch, layout)
            return sketch + "\n", dest
        if k.startswith("svd_") and k != "svd_geometry":
            loader = fd.load_matrix_csv if k == "svd_csv" else fd.load_matrix_json
            matrix = io_read(hook, "io." + loader.__name__, loader, a["argv"][2])
        else:
            layout = io_read(hook, "io.load_layout", fd.load_layout, geo)
        if k in ("si_csv", "si_json", "svd_geometry"):
            h = probe_si(hook, layout, a["rho"])
        if k in ("si_csv", "si_json"):
            writer = fd.write_matrix_csv if k == "si_csv" else fd.write_matrix_json
            io_write(hook, "io." + writer.__name__, writer, h, dest[0])
        elif k.startswith("svd"):
            if k == "svd_geometry":
                matrix = h.h
            spec = hook.call("spectral.svd_spectrum", {"entries": matrix.size}, fd.svd_spectrum, matrix)
            io_write(hook, "io.write_spectrum_csv", fd.write_spectrum_csv, spec, dest[0])
        elif k == "beampattern":
            curve = hook.call(
                "beampattern.beampattern", {"samples": CLI_GRID * len(layout.rx)},
                fd.beampattern, layout.rx, theta_s=a["theta_s"], grid_size=CLI_GRID, normalized=False,
            )
            io_write(hook, "io.write_curve_csv", fd.write_curve_csv, curve, dest[0])
        elif k == "coarray":
            co = hook.call("coarray.sum_coarray", {"pairs": entries(layout)}, fd.sum_coarray, layout)
            io_write(hook, "io.write_coarray_csv", fd.write_coarray_csv, co, dest[0])
        return None, dest

    def replay_fig2(self, op, hook):
        layouts, patterns, spectra = {}, {}, {}
        for fam, params in FIG2_LAYOUTS:
            layouts[fam] = hook.call("geometry.generate", {"positions": 22}, generate, fam, params)
        for fam, layout in layouts.items():
            patterns[fam] = hook.call(
                "beampattern.beampattern", {"samples": CLI_GRID * len(layout.rx)},
                fd.beampattern, layout.rx, theta_s=0.0, grid_size=CLI_GRID,
            )
        for fam, layout in layouts.items():
            h = probe_si(hook, layout, op.args["rho"])
            spectra[fam] = hook.call("spectral.svd_spectrum", {"entries": entries(layout)}, fd.svd_spectrum, h)
        study = fd.Fig2Study(rho=op.args["rho"], layouts=layouts, beampatterns=patterns, spectra=spectra)
        with hook.span("io.write_fig2_bundle") as rec:
            written = fd.write_fig2_bundle(study, os.path.join(self.workdir, "replay_fig2"))
        rec["bytes_written"] = sum(os.path.getsize(p) for p in written)
        return None, written

    def replay_sweep(self, op, hook, dest):
        rule = fd.ApertureRule(kind="quadratic")
        rows = []
        for n in CLI_SWEEP_N:
            target = rule.target(n)
            layout, params, feasible = hook.call(
                "geometry.build_family_layout", {"positions": 2 * n}, fd.build_family_layout, "nested", n, target
            )
            h = probe_si(hook, layout, op.args["rho"])
            sigma = hook.call("spectral.spectral_norm", {"entries": entries(layout)}, fd.spectral_norm, h)
            rows.append(fd.SweepRow(
                n=n, family="nested", l_target=target, l_actual=int(layout.joint_aperture),
                spectral_norm=sigma, params=params, feasible=feasible,
            ))
        result = fd.SweepResult(family="nested", rule=rule, rho=op.args["rho"], rows=tuple(rows))
        io_write(hook, "io.write_sweep_csv", fd.write_sweep_csv, result, dest)
        return None, [dest]

    def replay_summary(self, op, replayed):
        stdout, paths = replayed
        return stdout, [read(p) for p in paths]

    def untraced_summary(self, op, result):
        """Output files, plus the sketch ``geometry`` prints; the other
        commands print nothing or the paths they wrote."""
        return (result[1] if op.kind == "geometry" else None), self.outputs(op)

    def alloc_cases(self):
        fam, params = CLI_LAYOUTS[1]
        layout = generate(fam, params)
        return (layout, 1.0), (layout.rx, 0.0, CLI_GRID)

    def counters(self):
        """Layouts whose file round trip changes a position (a count, not a failure)."""
        inexact = 0
        for fam, params, exact, geo, _ in self.layouts.values():
            if not os.path.exists(geo):
                continue
            loaded = fd.load_layout(geo)
            if list(loaded.tx.positions) != list(exact.tx.positions) or list(loaded.rx.positions) != list(exact.rx.positions):
                inexact += 1
        return {"io.inexact_roundtrips": inexact}


def parse_argv(argv):
    return fd_cli.build_parser().parse_args(argv)


def io_read(hook, name, fn, path):
    return hook.call(name, {"bytes_read": os.path.getsize(path)}, fn, path)


def io_write(hook, name, fn, obj, path):
    with hook.span(name) as rec:
        fn(obj, path)
    rec["bytes_written"] = os.path.getsize(path)


WORKLOADS = {w.name: w for w in (Sweep, Coarray, Cli, Analyze)}
