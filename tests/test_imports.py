"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import wavedens

MODULES = sorted(p for p in Path(wavedens.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    continue
                # "import a.b" binds "a"
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import json\nimport sys\nfrom os import path, sep\nsys.exit(path)\n") == [
        "json (line 1)",
        "sep (line 3)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the public surface; a change here adds or removes API on purpose
PUBLIC_NAMES = [
    "AffineMap", "BasisIndex", "BenchmarkConfig", "BenchmarkReport", "BudgetError", "CoefficientSet",
    "ConfigurationError", "DataError", "DegenerateModelError", "DensityModel", "EstimationError",
    "EstimatorConfig", "Field", "GridSpec", "KCondition", "KConsistencyWarning", "MixtureSpec", "MomentCheck",
    "NeighborStats", "WavedensError", "WaveletFamily", "build_family", "cached_family", "classical",
    "classical_coefficients", "consistency_factor", "daubechies_filter", "dilation_coefficients", "errors",
    "estimate_coefficient_sets", "estimate_coefficients", "estimator", "exp_law_check", "fit_classical",
    "fit_model", "get_density", "grid_eval", "ise", "knn_stats", "ks_exponential", "make_mixture", "mass",
    "metrics", "mise_aggregate", "model_from_file", "moment_identity_check", "negative_mass", "neighbors",
    "normalization_mass", "normalize", "read_coefficients", "replication_rng", "rescale_classical",
    "rescale_to_domain", "run_benchmark", "sample_mixture", "simulation", "soft_threshold",
    "true_density_field", "truncate_details", "unit_ball_volume", "validate_k", "wavelets",
    "write_coefficients",
]


def test_public_surface_is_the_listed_one():
    assert sorted(wavedens.__all__) == PUBLIC_NAMES
