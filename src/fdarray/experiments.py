"""Figure-level studies: family comparison bundles and spectral-norm sweeps.

Two aperture growth laws are supported for the sweeps: linear (L = c*N,
default c=2) and quadratic (L = c*N**2, default c=0.26). Family parameters
are solved per N by inverting each family's joint-aperture identity; rows
where the rule is infeasible (the solved parameter had to be clamped to
its minimum) are flagged rather than dropped.
"""

import math
from dataclasses import dataclass

from .beampattern import BeampatternCurve, beampattern
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
        if self.kind not in (RULE_LINEAR, RULE_QUADRATIC):
            raise ValueError(f"unknown aperture rule {self.kind!r}")
        if self.coeff is None:
            object.__setattr__(self, "coeff", DEFAULT_COEFF[self.kind])
        for name in ("coeff", "l_max"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"aperture rule {name} must be finite, got {value}")
        if self.coeff <= 0:
            raise ValueError("aperture coefficient must be > 0")

    def target(self, n: int) -> float:
        base = self.coeff * (n if self.kind == RULE_LINEAR else n * n)
        if self.l_max is not None:
            base = min(base, self.l_max)
        return float(base)


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
        Antennas per side; rows come out sorted by N.
    rule : ApertureRule
    rho : float
        Held constant across the sweep, so curves compare in shape.

    Returns
    -------
    SweepResult
    """
    ns = sorted(int(n) for n in n_values)
    if not ns:
        raise ValueError("n_values must be nonempty")
    if len(set(ns)) != len(ns):
        raise ValueError("n_values must be distinct")
    rows = []
    for n in ns:
        l_target = rule.target(n)
        layout, params, feasible = build_family_layout(family, n, l_target)
        norm = spectral_norm(si_matrix(layout, rho))
        rows.append(
            SweepRow(
                n=n,
                family=family,
                l_target=l_target,
                l_actual=int(layout.joint_aperture),
                spectral_norm=norm,
                params=params,
                feasible=feasible,
            )
        )
    return SweepResult(family=family, rule=rule, rho=float(rho), rows=tuple(rows))


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
