"""Statistical modeling of physical laws from noisy paired measurements.

Builds kernel density estimates whose kernel is the calibrated scattering
function of the instrument, derives entropy-based statistics (experimental
information, redundancy, cost, complexity) to pick the proper number of
samples, and extracts the law as a conditional-average predictor with a
quantified quality score.
"""

from .density import Dataset, DensityModel
from .errors import (DegenerateVariance, EmptyDataset, ExperimentModelError,
                     InvalidGrid, InvalidParameter, InvalidSchedule,
                     ShapeMismatch)
from .generator import GenerationMeta, generate
from .information import InfoCurve, InfoRecord, default_schedule, info_curve
from .predictor import (CaPredictor, QualityReport, predictor_quality,
                        quality_sweep)
from .scattering import ScatteringFunction
from .tables import read_dataset_csv, write_dataset_csv

__version__ = "0.1.0"

__all__ = [
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
