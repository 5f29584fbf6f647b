import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dre import rng
from dre.env import Window, sample_environment
from dre.measure import SupportMeasure
from dre.models import ModelId


MIXED_MEASURES = [
    ModelId("NE-SW", 0.5),
    ModelId("NE-SW", 0.85),
    ModelId("EW-NS", 0.5),
    ModelId("SWE-N", 0.4),
    ModelId("NE-.", 0.7),
    ModelId("NSEW-.", 0.55),
    ModelId("N-E", 0.5),
    ModelId("EW-N", 0.6),
    ModelId("NE-W", 0.65),
]


@pytest.fixture
def small_env():
    return sample_environment(ModelId("NE-SW", 0.5), Window.centered(3), 12345)


def raw_measure(*atoms):
    """Measure from (mask, prob) pairs, d=2."""
    return SupportMeasure(2, tuple(atoms))


def count_passed(seed, parts, thresholds):
    """Atom index of each draw keyed on (seed, parts): the number of
    rng.passed planes its hash is in."""
    h = rng.hash_parts(seed, parts)
    return sum(rng.passed(h, thresholds), np.zeros(np.shape(h), dtype=np.int64))
