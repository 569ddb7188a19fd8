from __future__ import annotations

import numpy as np
import pytest

from keydyn.matrix import build_score_matrix
from keydyn.verifiers import DEFAULT_ABSOLUTE_THRESHOLD, SimilarityMode, Verifier

from columns import digraph_key, unigraph_key, wordhold_key


FEATURE_POOL = (
    unigraph_key("a"),
    unigraph_key("b"),
    unigraph_key("c"),
    digraph_key("a", "b"),
    digraph_key("b", "a"),
    digraph_key("a", "c"),
    wordhold_key("ab"),
    wordhold_key("cab"),
)


def random_profile(rng: np.random.Generator, max_features: int = 5, max_values: int = 8) -> dict:
    """Small random feature dictionary; digraph features mix signs, and
    duplicate/zero values are salted in to hit the degenerate branches."""
    n_features = int(rng.integers(0, max_features + 1))
    chosen = rng.choice(len(FEATURE_POOL), size=n_features, replace=False)
    profile = {}
    for index in chosen:
        key = FEATURE_POOL[index]
        n_values = int(rng.integers(1, max_values + 1))
        if key.startswith("D:"):
            values = rng.uniform(-250.0, 400.0, n_values)
        else:
            values = rng.uniform(0.0, 400.0, n_values)
        if n_values >= 2 and rng.random() < 0.25:
            values[1] = values[0]  # forces sample std 0 sometimes
        if rng.random() < 0.10:
            values[0] = 0.0  # exact-zero medians for single-value lists
        profile[key] = [float(v) for v in values]
    return profile


def similarity_score(enroll: dict, probe: dict, mode: SimilarityMode = SimilarityMode.AS_PUBLISHED) -> float:
    """One pair's Similarity score: the 1x1 matrix of one user per side."""
    return float(build_score_matrix({"u": enroll}, {"u": probe}, Verifier.SIMILARITY, mode=mode).values[0, 0])


def absolute_score(enroll: dict, probe: dict, threshold: float = DEFAULT_ABSOLUTE_THRESHOLD) -> float:
    """One pair's Absolute score: the 1x1 matrix of one user per side."""
    return float(build_score_matrix({"u": enroll}, {"u": probe}, Verifier.ABSOLUTE, threshold=threshold).values[0, 0])


def itad_score(enroll: dict, probe: dict) -> float:
    """One pair's ITAD score: the 1x1 matrix of one user per side."""
    return float(build_score_matrix({"u": enroll}, {"u": probe}, Verifier.ITAD).values[0, 0])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240831)
