"""specedge: deterministic spectral laws of X'TX for signed diagonal T,
edge location and classification, GOE Tracy-Widom edge tests, MANOVA
variance-component populations, Monte Carlo verification harness, and
Lindeberg swap sequences with tracked edges.

Importing the package loads none of its submodules.  A public name, or a
submodule read as an attribute (`specedge.tw`), is imported on first
access (PEP 562) and then bound here, so later reads are plain lookups.
The CLI relies on this: a command loads only the layers it runs."""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "edges": ("EdgeInfo", "SupportReport", "atom_mass_at_zero", "balanced_sufficiency",
              "check_regularity", "edge_for_m_sign", "find_edges", "isolated_zero_in_support"),
    "errors": ("SpecEdgeError",),
    "manova": ("GeneralDesign", "OneWayDesign", "estimate_sigma_sq", "general_F_population",
               "manova_estimate", "oneway_B_matrices", "oneway_population"),
    "population": ("PopulationSpec", "from_values"),
    "simulate": ("CoverageResult", "LocalLawProbe", "SimConfig", "edge_concentration",
                 "local_law_probe", "sample_spectrum", "support_adherence",
                 "table1_experiment"),
    "spectral": ("density_f0", "solve_m0", "stieltjes_boundary"),
    "swaps": ("SwapDiagnostics", "SwapState", "build_swap_sequence", "sum_rule_residuals",
              "verify_swappable"),
    "tw": ("f1_cdf", "f1_quantile"),
    "twtest": ("TestReport", "edge_test", "plugin_edge_test"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "manifest"}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
