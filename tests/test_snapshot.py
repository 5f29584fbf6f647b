import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre.env import Window, sample_environment
from dre.errors import ValidationError
from dre.models import ModelId
from dre.snapshot import dumps, load_snapshot, read_snapshot


def _roundtrip(env):
    text = dumps(env)
    back = read_snapshot(io.StringIO(text))
    assert back.window == env.window
    assert back.seed == env.seed
    assert np.array_equal(back.arrows, env.arrows)
    return text


def test_roundtrip_d2():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.box((-3, 5), (-2, 4)), 99)
    text = _roundtrip(env)
    header = text.splitlines()[0]
    assert header == "DRE 1 d=2 seed=99 win=-3:5,-2:4 model=NE-SW:0.5"
    # one hex digit per site, one row per second-axis slice
    lines = text.splitlines()[1:]
    assert len(lines) == 7 and all(len(line) == 9 for line in lines)


def test_roundtrip_d3():
    from dre.measure import SupportMeasure

    m = SupportMeasure(3, ((0b000111, 0.5), (0b111000, 0.5)))
    env = sample_environment(m, Window.centered(2, 3), 5)
    text = dumps(env)
    back = read_snapshot(io.StringIO(text))
    assert np.array_equal(back.arrows, env.arrows)
    # two hex digits per site for six mask bits
    assert len(text.splitlines()[1]) == 2 * 25


def test_roundtrip_orthant_model_d3():
    env = sample_environment(ModelId("orthant", 0.4, 3), Window.centered(3, 3), 7)
    back = read_snapshot(io.StringIO(dumps(env)))
    assert back.model == env.model == ModelId("orthant", 0.4, 3)
    assert back.window == env.window and back.seed == 7
    assert np.array_equal(back.arrows, env.arrows)


def test_bad_header_rejected():
    with pytest.raises(ValidationError):
        read_snapshot(io.StringIO("nonsense\n"))


def test_tampered_site_outside_support_rejected():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(2), 1)
    text = dumps(env)
    head, first_row, rest = text.split("\n", 2)
    bad = "f" * len(first_row)
    with pytest.raises(ValidationError):
        read_snapshot(io.StringIO("\n".join([head, bad, rest])))


def test_row_length_mismatch_rejected():
    env = sample_environment(ModelId("NE-SW", 0.5), Window.centered(2), 1)
    text = dumps(env)
    head, first_row, rest = text.split("\n", 2)
    with pytest.raises(ValidationError):
        read_snapshot(io.StringIO("\n".join([head, first_row + "0", rest])))


@pytest.mark.parametrize("old, new", [
    ("win=-2:2,-2:2", "win=-1:1:2,-2:2"),
    ("win=-2:2,-2:2", "win=1-1:1,-2:2"),
    ("win=-2:2,-2:2", "win=-2:2,,-2:2"),
    ("NE-SW:0.5", "NE-SW:half"),
    ("NE-SW:0.5", "NE-SW"),
    ("\n3", "\ng"),
], ids=["three ends", "non-integer end", "empty window part", "non-numeric p", "no p",
        "non-hex digit"])
def test_malformed_snapshot_rejected(old, new):
    text = dumps(sample_environment(ModelId("NE-SW", 0.5), Window.centered(2), 1))
    assert text.startswith("DRE 1 d=2 seed=1 win=-2:2,-2:2 model=NE-SW:0.5\n3")
    with pytest.raises(ValidationError):
        read_snapshot(io.StringIO(text.replace(old, new, 1)))


def test_non_ascii_snapshot_file_rejected(tmp_path):
    path = tmp_path / "env.dre"
    text = dumps(sample_environment(ModelId("NE-SW", 0.5), Window.centered(2), 1))
    path.write_bytes(text.replace("\n3", "\n\xe9", 1).encode("latin-1"))  # one byte, 0xe9
    with pytest.raises(ValidationError):
        load_snapshot(str(path))


def test_raw_masks_past_the_arrows_rejected():
    from dre.measure import SupportMeasure

    # d=3 has six arrows; two hex digits per site hold eight bits
    m = SupportMeasure(3, ((0b000111, 0.5), (0b111000, 0.5)))
    head, first_row, rest = dumps(sample_environment(m, Window.centered(1, 3), 5)).split("\n", 2)
    assert head.endswith("model=raw")
    read_snapshot(io.StringIO("\n".join([head, "f3" * 9, rest])))  # bits 0-5, low digit first
    with pytest.raises(ValidationError):
        read_snapshot(io.StringIO("\n".join([head, "ff" * 9, rest])))


@given(seed=st.integers(0, 2**31), p=st.floats(0.05, 0.95))
@settings(max_examples=20, deadline=None)
def test_roundtrip_random(seed, p):
    env = sample_environment(ModelId("SWE-N", round(p, 3)), Window.centered(3), seed)
    _roundtrip(env)
