"""The public names the package and its modules export all resolve."""

import importlib
import pkgutil

import pytest

import hyperfill

# hyperfill.__main__ runs the command line when imported
MODULES = ["hyperfill"] + sorted(
    "hyperfill." + m.name for m in pkgutil.iter_modules(hyperfill.__path__)
    if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []



# The package's public names: code may be deleted behind them, but each
# stays importable from the top level.
PUBLIC = [
    "BACKEND", "__version__",
    "ConfigError", "GateError", "HyperfillError", "NumericalError",
    "FiniteMetricMeasureSpace", "SubsetMask", "IfsMap", "IfsSystem",
    "unit_cube_space", "ifs_attractor", "middle_thirds_system",
    "sierpinski_system", "cantor_mask", "subspace", "space_from_descriptor",
    "space_to_descriptor", "mask_from_descriptor", "mask_to_descriptor",
    "ahlfors_fit", "doubling_audit", "porosity_scan",
    "codim_regularity_check",
    "Filling", "NestedFilling", "build_filling", "build_nested_filling",
    "audit_filling", "audit_nested", "overlap_audit",
    "filling_to_dict", "filling_from_dict", "nested_to_dict",
    "nested_from_dict",
    "poisson_extension", "discrete_derivative", "Partition",
    "build_partition", "partition_lipschitz_quotient",
    "level_blend", "edge_blend", "telescoping_integral",
    "SmoothnessParams", "NormVariant", "TraceAdmissibility",
    "half_ball_substitute", "lp_norm",
    "besov_seq_norm", "triebel_seq_norm", "besov_fn_norm", "triebel_fn_norm",
    "nonhom_norm", "admissibility", "trace_smoothness_window",
    "HajlaszGradient", "hajlasz_norm",
    "TraceResult", "ExtensionResult", "SobolevCertificate",
    "trace_besov", "extend_besov", "trace_triebel", "extend_sobolev",
    "nonhom_trace", "nonhom_extend", "codim_mass_band",
    "ExperimentReport", "audit_norm_variants",
    "audit_porosity_qindependence", "audit_nonhom_split",
    "audit_small_p_embedding", "audit_approx_density", "audit_theorem_suite",
]


def test_package_exports_its_public_names():
    assert hyperfill.__all__ == PUBLIC
