"""The public names and the file writer no other test pins."""

import fdarray
from fdarray import files
from fdarray.coarray import coarray_scaling
from fdarray.files import write_scaling_csv

# fdarray.__all__ before the readers and writers moved into fdarray.files
PUBLIC_NAMES = {
    "ApertureRule", "ArrayGeometry", "BeampatternCurve", "CoarrayScalingTable",
    "ColocatedAntennaError", "DistanceMatrix", "Fig2Study", "FullDuplexLayout",
    "MainLobeWidth", "SIChannelMatrix", "SingularSpectrum", "SumCoarray", "SweepResult",
    "SweepRow", "ValidationReport", "array_factor", "ascii_sketch", "beampattern",
    "build_family_layout", "coarray_scaling", "distance_matrix", "effective_rank",
    "fig2_study", "generate_interleaved", "generate_nested", "generate_partitioned",
    "grating_lobes", "interleaved_closed_form_n2", "is_toeplitz", "layout_from_dict",
    "layout_to_dict", "load_layout", "load_matrix_csv", "load_matrix_json", "loglog_slope",
    "main_lobe_width", "partitioned_rank1_gap", "save_layout", "scaling_sweep", "si_leakage",
    "si_matrix", "sign_pattern", "spectral_norm", "sum_coarray", "svd_spectrum", "validate",
    "write_coarray_csv", "write_curve_csv", "write_fig2_bundle", "write_matrix_csv",
    "write_matrix_json", "write_scaling_csv", "write_spectrum_csv", "write_sweep_csv",
}


def test_public_names_are_unchanged():
    assert set(fdarray.__all__) == PUBLIC_NAMES
    assert len(fdarray.__all__) == len(PUBLIC_NAMES)
    # every reader and writer is exported from the one files module
    io_names = [n for n in fdarray.__all__ if n.startswith(("load_", "save_", "write_", "layout_"))]
    assert len(io_names) == 14
    assert all(getattr(fdarray, n) is getattr(files, n) for n in io_names)


def test_scaling_csv_bytes(tmp_path):
    path = tmp_path / "scaling.csv"
    write_scaling_csv(coarray_scaling(range(10, 61, 10)), path)
    assert path.read_bytes() == (
        b"N,contiguous_len,L\n10,29,19\n20,179,102\n30,389,214\n40,759,407\n50,1149,609\n60,1739,912\n"
    )
