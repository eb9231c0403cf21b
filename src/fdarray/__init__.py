"""Full-duplex array geometry and self-interference analysis toolkit.

Builds collinear Tx/Rx array layouts (partitioned, interleaved, nested),
synthesizes their spherical-wave self-interference channel matrices, and
analyzes SI severity (singular spectra, spectral norm), angular resolution
(beampatterns) and sensing capability (sum co-arrays), including scaling
studies in the antenna count and aperture.
"""

from .beampattern import (
    BeampatternCurve,
    MainLobeWidth,
    array_factor,
    beampattern,
    grating_lobes,
    main_lobe_width,
)
from .coarray import SumCoarray, sum_coarray
from .experiments import (
    ApertureRule,
    CoarrayScalingTable,
    Fig2Study,
    SweepResult,
    SweepRow,
    build_family_layout,
    coarray_scaling,
    fig2_study,
    loglog_slope,
    partitioned_rank1_gap,
    scaling_sweep,
)
from .files import (
    layout_from_dict,
    layout_to_dict,
    load_layout,
    load_matrix_csv,
    load_matrix_json,
    save_layout,
    write_coarray_csv,
    write_curve_csv,
    write_fig2_bundle,
    write_matrix_csv,
    write_matrix_json,
    write_spectrum_csv,
    write_sweep_csv,
)
from .geometry import (
    ArrayGeometry,
    ColocatedAntennaError,
    FullDuplexLayout,
    ValidationReport,
    ascii_sketch,
    generate_interleaved,
    generate_nested,
    generate_partitioned,
    validate,
)
from .si_model import (
    DistanceMatrix,
    SIChannelMatrix,
    distance_matrix,
    is_toeplitz,
    si_matrix,
    sign_pattern,
)
from .spectral import (
    SingularSpectrum,
    effective_rank,
    spectral_norm,
    svd_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "ApertureRule",
    "ArrayGeometry",
    "BeampatternCurve",
    "CoarrayScalingTable",
    "ColocatedAntennaError",
    "DistanceMatrix",
    "Fig2Study",
    "FullDuplexLayout",
    "MainLobeWidth",
    "SIChannelMatrix",
    "SingularSpectrum",
    "SumCoarray",
    "SweepResult",
    "SweepRow",
    "ValidationReport",
    "array_factor",
    "ascii_sketch",
    "beampattern",
    "build_family_layout",
    "coarray_scaling",
    "distance_matrix",
    "effective_rank",
    "fig2_study",
    "generate_interleaved",
    "generate_nested",
    "generate_partitioned",
    "grating_lobes",
    "is_toeplitz",
    "layout_from_dict",
    "layout_to_dict",
    "load_layout",
    "load_matrix_csv",
    "load_matrix_json",
    "loglog_slope",
    "main_lobe_width",
    "partitioned_rank1_gap",
    "save_layout",
    "scaling_sweep",
    "si_matrix",
    "sign_pattern",
    "spectral_norm",
    "sum_coarray",
    "svd_spectrum",
    "validate",
    "write_coarray_csv",
    "write_curve_csv",
    "write_fig2_bundle",
    "write_matrix_csv",
    "write_matrix_json",
    "write_spectrum_csv",
    "write_sweep_csv",
]
