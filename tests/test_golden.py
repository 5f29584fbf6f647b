"""Every golden case reproduces the digest in golden.json (see golden.py)."""

import json

import pytest

from golden import PATH, cases, digest

GOLDEN = json.loads(PATH.read_text())
CASES = cases()


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert digest(CASES[name]()) == GOLDEN[name]
