"""Keystroke-dynamics verification toolkit.

Pipeline: raw key-event logs -> paired keystrokes -> timing-feature profiles
-> verifier score matrices (+ fusion) -> rank-k identification reports.
"""

from .evaluation import (
    BenchmarkConfig,
    build_scenario_data,
    k_rank_accuracy,
    run_benchmark,
    same_platform_scenario,
    score_scenarios,
)
from .matrix import score_matrices
from .synth import SynthSpec, generate_corpus
