import dataclasses

import pytest

import expmodel

# Removing a public name takes an edit here, argued in CHANGES.md.
PUBLIC_NAMES = [
    "CaPredictor",
    "Dataset",
    "DegenerateVariance",
    "DensityModel",
    "EmptyDataset",
    "ExperimentModelError",
    "GenerationMeta",
    "InfoCurve",
    "InfoRecord",
    "InvalidGrid",
    "InvalidParameter",
    "InvalidSchedule",
    "QuadratureGrid",
    "QualityReport",
    "ScatteringFunction",
    "ShapeMismatch",
    "default_schedule",
    "generate",
    "info_curve",
    "predictor_quality",
    "quality_sweep",
    "read_dataset_csv",
    "write_dataset_csv",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(expmodel.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(expmodel, name) is not None


# The estimators' public methods; removing one takes an edit here as well.
PUBLIC_METHODS = {
    "DensityModel": ["weights"],
    "CaPredictor": ["predict_many", "weights"],
    "InfoCurve": [],
}


@pytest.mark.parametrize("name", sorted(PUBLIC_METHODS))
def test_estimator_methods_are_pinned(name):
    cls = getattr(expmodel, name)
    public = sorted(m for m in dir(cls) if not m.startswith("_") and callable(getattr(cls, m)))
    assert public == PUBLIC_METHODS[name]


# The provenance a dataset CSV records; adding a field takes an edit here.
def test_generation_meta_fields_are_pinned():
    fields = tuple(f.name for f in dataclasses.fields(expmodel.GenerationMeta))
    assert fields == ("seed", "sigma_noise", "n")


# The results store what was measured; the rest are properties derived from it.
def test_result_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(expmodel.InfoRecord)) == ("n", "info")
    assert tuple(f.name for f in dataclasses.fields(expmodel.InfoCurve)) == ("records",)
    assert tuple(f.name for f in dataclasses.fields(expmodel.QualityReport)) == (
        "mean_true", "mean_pred", "var_true", "var_pred", "cov", "mse", "n_test")


# A dataset holds its measured pairs and their provenance, nothing derived.
def test_dataset_attributes_are_pinned():
    data = expmodel.generate(expmodel.GenerationMeta(seed=1, sigma_noise=0.2, n=5))
    assert sorted(vars(data)) == ["meta", "x", "y"]
    assert sorted(vars(data.prefix(2))) == ["meta", "x", "y"]
    assert sorted(vars(expmodel.Dataset([0.1], [0.2]))) == ["meta", "x", "y"]
