"""Studies: the one module that combines the kernels into the paper's results.

Two aperture growth laws are supported for the sweeps: linear (L = c*N,
default c=2) and quadratic (L = c*N**2, default c=0.26). Family parameters
are solved per N by inverting each family's joint-aperture identity; rows
where the rule is infeasible (the solved parameter had to be clamped to
its minimum) are flagged rather than dropped.
"""

import math
from dataclasses import dataclass

import numpy as np

from .beampattern import BeampatternCurve, beampattern
from .coarray import sum_coarray
from .geometry import (
    FullDuplexLayout,
    build_family_layout,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
)
from .si_model import si_matrix
from .spectral import SingularSpectrum, spectral_norm, svd_spectrum

RULE_LINEAR = "linear"
RULE_QUADRATIC = "quadratic"
DEFAULT_COEFF = {RULE_LINEAR: 2.0, RULE_QUADRATIC: 0.26}


@dataclass(frozen=True)
class ApertureRule:
    """Target joint aperture as a function of the per-side antenna count."""

    kind: str
    coeff: float | None = None
    l_max: float | None = None

    def __post_init__(self):
        if self.kind not in DEFAULT_COEFF:
            raise ValueError(f"unknown aperture rule {self.kind!r}")
        if self.coeff is None:
            object.__setattr__(self, "coeff", DEFAULT_COEFF[self.kind])
        for name in ("coeff", "l_max"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"aperture rule {name} must be a number, not a bool, got {value!r}")
            if value is not None and not math.isfinite(value):
                raise ValueError(f"aperture rule {name} must be finite, got {value}")
        if self.coeff <= 0:
            raise ValueError("aperture coefficient must be > 0")

    def target(self, n: int) -> float:
        base = self.coeff * (n if self.kind == RULE_LINEAR else n * n)
        if self.l_max is not None:
            base = min(base, self.l_max)
        return float(base)


def _antenna_counts(n_values) -> list[int]:
    """A study's antenna counts as ints, in their order: nonempty, distinct integers (not bools)."""
    ns = list(n_values)
    if not ns:
        raise ValueError("n_values must be nonempty")
    for n in ns:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n_values must be integers, got {n!r}")
    ns = list(map(int, ns))
    if len(set(ns)) != len(ns):
        raise ValueError("n_values must be distinct")
    return ns


@dataclass(frozen=True)
class SweepRow:
    n: int
    family: str
    l_target: float
    l_actual: int
    spectral_norm: float
    params: tuple[tuple[str, int], ...]
    feasible: bool


@dataclass(frozen=True)
class SweepResult:
    family: str
    rule: ApertureRule
    rho: float
    rows: tuple[SweepRow, ...]


def scaling_sweep(family: str, n_values, rule: ApertureRule, rho: float = 1.0) -> SweepResult:
    """Spectral norm of the SI channel across antenna counts under a rule.

    Parameters
    ----------
    family : str
        A key of `geometry.FAMILIES`.
    n_values : iterable of int
        Distinct antenna counts per side; rows come out sorted by N.
    rule : ApertureRule
    rho : float
        Held constant across the sweep, so curves compare in shape.

    Returns
    -------
    SweepResult
    """
    rows = []
    for n in sorted(_antenna_counts(n_values)):
        l_target = rule.target(n)
        layout, params, feasible = build_family_layout(family, n, l_target)
        norm = spectral_norm(si_matrix(layout, rho))
        rows.append(SweepRow(n, family, l_target, int(layout.joint_aperture), norm, params, feasible))
    return SweepResult(family=family, rule=rule, rho=float(rho), rows=tuple(rows))


@dataclass(frozen=True)
class CoarrayScalingRow:
    n: int
    contiguous_len: int
    aperture: int
    m1: int
    m2: int
    delta3: int


@dataclass(frozen=True)
class CoarrayScalingTable:
    """contiguous_len per antenna count, with the fitted log-log growth rate."""

    rows: tuple[CoarrayScalingRow, ...]
    slope: float


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs), over at least two distinct xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError("need at least two distinct x values for a slope")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def coarray_scaling(n_values, target_aperture=None) -> CoarrayScalingTable:
    """Contiguous co-array length of nested layouts across antenna counts.

    For each N the nested family is built with the balanced split
    m1 = ceil(N/2), m2 = N - m1 and delta3 solved from the target
    aperture (default the quadratic `ApertureRule`, 0.26*N**2). The
    contiguous length then grows roughly as N**2 only while 2*delta3 <= m1:
    that fails at about half of the N in 177..224 and at every N from 225
    (N = 190, 250 and 300 among them), where it collapses to N - 1 or N.

    Parameters
    ----------
    n_values : iterable of int
        Distinct antenna counts per side, each >= 2; rows keep their order.
    target_aperture : callable, optional
        Maps N to the desired joint aperture.

    Returns
    -------
    CoarrayScalingTable
    """
    if target_aperture is None:
        target_aperture = ApertureRule(kind=RULE_QUADRATIC).target
    rows = []
    for n in _antenna_counts(n_values):
        layout, params, _ = build_family_layout("nested", n, target_aperture(n))
        contiguous_len = int(sum_coarray(layout).contiguous_len)
        rows.append(CoarrayScalingRow(n, contiguous_len, int(layout.joint_aperture), **dict(params)))
    slope = loglog_slope([r.n for r in rows], [r.contiguous_len for r in rows])
    return CoarrayScalingTable(rows=tuple(rows), slope=slope)


def partitioned_rank1_gap(delta1_values, rho: float = 1.0) -> list[tuple[int, float]]:
    """sigma2/sigma1 of the two-antenna partitioned channel per gap value.

    The ratio shrinks as the Tx/Rx separation grows and the channel
    approaches rank one.

    Returns
    -------
    list of (delta1, ratio) pairs in the given order.
    """
    rows = []
    for delta1 in delta1_values:
        spec = svd_spectrum(si_matrix(generate_partitioned(2, delta1), rho))
        rows.append((delta1, float(spec.sigmas[1] / spec.sigmas[0])))
    if not rows:
        raise ValueError("delta1_values must be nonempty")
    return rows


@dataclass(frozen=True)
class Fig2Study:
    """Side-by-side comparison of the three families at matched aperture."""

    rho: float
    layouts: dict[str, FullDuplexLayout]
    beampatterns: dict[str, BeampatternCurve]
    spectra: dict[str, SingularSpectrum]


def fig2_study(rho: float = 0.2, grid_size: int = 4096) -> Fig2Study:
    """Reference 11-antenna-per-side comparison study.

    Builds partitioned(11, 23), interleaved(11, 2) and nested(6, 5, 3),
    which put all three families at joint apertures of 44, 42 and 43
    half-wavelengths, then samples each family's Rx beampattern at
    broadside and the singular spectrum of its SI channel.
    """
    layouts = {
        "partitioned": generate_partitioned(11, 23),
        "interleaved": generate_interleaved(11, 2),
        "nested": generate_nested(6, 5, 3),
    }
    patterns = {
        fam: beampattern(layout.rx, theta_s=0.0, grid_size=grid_size)
        for fam, layout in layouts.items()
    }
    spectra = {
        fam: svd_spectrum(si_matrix(layout, rho)) for fam, layout in layouts.items()
    }
    return Fig2Study(rho=float(rho), layouts=layouts, beampatterns=patterns, spectra=spectra)
