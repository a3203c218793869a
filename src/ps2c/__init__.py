"""Pattern-sampled shapelet classification for time series.

Discretizes each series over a grid of (alphabet, window) resolutions,
scores every symbolic substring by class association, samples
patterns in proportion to their temperature-scaled scores, recovers
their real-valued subsequences, and re-encodes the dataset as
min-distance features for an off-the-shelf classifier.
"""

from .dataset import (
    LabeledDataset,
    UcrFormatError,
    load_ucr,
    znormalize,
    znormalize_dataset,
)
from .discretizer import (
    SaxParams,
    compute_breakpoints,
    discretize,
    paa,
    sax,
    sax_text,
)
from .pattern_index import PatternIndex
from .pipeline import (
    ExperimentResult,
    NoPatternsError,
    PipelineConfig,
    build_report,
    evaluate,
    fit_transform,
    merge,
    run_experiment,
    train_classifier,
)
from .sampler_trie import fit_sampler
from .shapelet_transform import create_feature_sets
from .synthgen import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "LabeledDataset",
    "UcrFormatError",
    "load_ucr",
    "znormalize",
    "znormalize_dataset",
    "SaxParams",
    "compute_breakpoints",
    "paa",
    "sax",
    "sax_text",
    "discretize",
    "PatternIndex",
    "fit_sampler",
    "create_feature_sets",
    "PipelineConfig",
    "ExperimentResult",
    "NoPatternsError",
    "fit_transform",
    "merge",
    "train_classifier",
    "evaluate",
    "run_experiment",
    "build_report",
    "SynthSpec",
    "generate",
]
