"""Multi-component discrete-time quantum walks with spin-j rotation coins,
their exact pseudovelocity limit laws, and the large-j structure of those
laws."""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A submodule is imported the
# first time one of its names is used (PEP 562), so `import quditwalk` loads
# none of them and the CLI's closed-form scans never load numpy.
_HOMES = {
    "ConvexityReport": "analysis",
    "critical_j": "analysis",
    "curvature_at_origin": "analysis",
    "pike_weight": "analysis",
    "pike_weight_paths": "analysis",
    "pike_weight_scaled": "analysis",
    "pike_zero_region": "analysis",
    "rescaled_density": "analysis",
    "EulerAngles": "coin",
    "rotation_matrix": "coin",
    "small_d": "coin",
    "small_d_coeff": "coin",
    "LimitSpec": "density",
    "WeightMatrix": "density",
    "continuous_density": "density",
    "delta_mass": "density",
    "konno_density": "density",
    "limit_bin_masses": "density",
    "limit_moment": "density",
    "offdiag_poly": "density",
    "weight_matrix_direct": "density",
    "weight_matrix_second": "density",
    "weight_matrix_top": "density",
    "weight_scalar": "density",
    "DegenerateSpecError": "errors",
    "DomainError": "errors",
    "HalfInt": "halfint",
    "components": "halfint",
    "dimension": "halfint",
    "PRESET_NAMES": "qudit",
    "Qudit": "qudit",
    "preset_qudit": "qudit",
    "BinnedDensity": "walk",
    "Distribution": "walk",
    "WaveField": "walk",
    "binned_density": "walk",
    "evolve": "walk",
    "initial_state": "walk",
    "position_distribution": "walk",
    "pseudovelocity_moment": "walk",
    "step": "walk",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
