import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dre.directions import Direction, parse_token
from dre.errors import ValidationError
from dre.measure import SupportMeasure, theta_plus_is_one
from dre.models import ModelId, measure_for, two_valued

from oracles import brute_force_theta_plus_witness


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValidationError):
        SupportMeasure(2, ((parse_token("NE"), 0.5), (parse_token("SW"), 0.4999)))
    # within tolerance is fine
    SupportMeasure(2, ((parse_token("NE"), 0.5), (parse_token("SW"), 0.5 - 1e-13)))


def test_rejects_duplicates_and_bad_probs():
    ne = parse_token("NE")
    with pytest.raises(ValidationError):
        SupportMeasure(2, ((ne, 0.5), (ne, 0.5)))
    with pytest.raises(ValidationError):
        SupportMeasure(2, ((ne, 0.0), (parse_token("SW"), 1.0)))
    with pytest.raises(ValidationError):
        SupportMeasure(6, ((ne, 1.0),))


def test_witness_orthant():
    ok, witness = theta_plus_is_one(measure_for(ModelId("NE-SW", 0.3)))
    assert ok
    assert witness == (Direction(0, +1), Direction(1, -1))


def test_witness_site_percolation_fails():
    ok, witness = theta_plus_is_one(measure_for(ModelId("NSEW-.", 0.99)))
    assert not ok and witness is None


def test_witness_up_right():
    ok, witness = theta_plus_is_one(measure_for(ModelId("N-E", 0.5)))
    assert ok
    assert witness == (Direction(0, +1), Direction(1, +1))


@given(
    n_atoms=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_witness_agrees_with_brute_force(n_atoms, data):
    masks = data.draw(st.lists(st.integers(min_value=0, max_value=15),
                               min_size=n_atoms, max_size=n_atoms, unique=True))
    probs = [1.0 / n_atoms] * (n_atoms - 1)
    probs.append(1.0 - sum(probs))
    m = SupportMeasure(2, tuple(zip(masks, probs)))
    ok, witness = theta_plus_is_one(m)
    assert ok == brute_force_theta_plus_witness(m)
    if ok:
        vmask = 0
        for dn in witness:
            vmask |= 1 << dn.bit(2)
        assert all(mask & vmask for mask, _ in m.atoms)


def test_two_valued_helper():
    m = two_valued("NE", "SW", 0.25)
    assert m.prob_mask_superset(parse_token("NE")) == 0.25
    with pytest.raises(ValidationError):
        two_valued("NE", "NE", 0.25)
    with pytest.raises(ValidationError):
        two_valued("NE", "SW", 1.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_orthant_model_atoms_and_label(d):
    model = ModelId("orthant", 0.3, d)
    plus = sum(1 << Direction(axis, +1).bit(d) for axis in range(d))
    minus = sum(1 << Direction(axis, -1).bit(d) for axis in range(d))
    assert measure_for(model) == SupportMeasure(d, ((plus, 0.3), (minus, 0.7)))
    assert model.label() == ("orthant:0.3" if d == 2 else f"orthant:0.3:d{d}")


def test_model_dimension_rejected():
    for d in (1, 6):
        with pytest.raises(ValidationError):
            ModelId("orthant", 0.5, d)
    with pytest.raises(ValidationError):
        ModelId("NE-SW", 0.5, 3)
