import pytest

from levislice.model import SpaceKind, SymmetricSpaceModel, positive_roots


def root_names(model):
    return sorted(str(label) for label, _ in positive_roots(model))


def test_rank_one_tube_has_only_the_long_root():
    model = SymmetricSpaceModel(rank=1, kind=SpaceKind.TUBE)
    assert [(str(l), m) for l, m in positive_roots(model)] == [("2e1", 1)]


def test_rank_two_tube_roots():
    model = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, mult_medium=3)
    roots = {str(l): m for l, m in positive_roots(model)}
    assert roots == {"2e1": 1, "2e2": 1, "e1+e2": 3, "e1-e2": 3}


def test_rank_two_nontube_adds_short_roots():
    model = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_medium=3,
                                mult_short=4)
    roots = {str(l): m for l, m in positive_roots(model)}
    assert roots["e1"] == 4 and roots["e2"] == 4
    assert roots["2e1"] == 1 and roots["e1-e2"] == 3


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_root_vector_slot_count(r):
    m = 2
    # the root-space dimensions add up to r + m r (r - 1) (+ 6 r short)
    tube = SymmetricSpaceModel(rank=r, kind=SpaceKind.TUBE, mult_medium=m)
    assert sum(mult for _, mult in positive_roots(tube)) == r + m * r * (r - 1)
    nontube = SymmetricSpaceModel(rank=r, kind=SpaceKind.NON_TUBE, mult_medium=m,
                                  mult_short=6)
    assert sum(mult for _, mult in positive_roots(nontube)) == r + m * r * (r - 1) + 6 * r


def test_model_validation():
    with pytest.raises(ValueError):
        SymmetricSpaceModel(rank=0)
    with pytest.raises(ValueError):
        SymmetricSpaceModel(rank=1, killing_b=0.0)
    with pytest.raises(ValueError):
        SymmetricSpaceModel(rank=1, kind=SpaceKind.TUBE, mult_short=2)
    with pytest.raises(ValueError):
        SymmetricSpaceModel(rank=1, kind=SpaceKind.NON_TUBE, mult_short=0)
    with pytest.raises(ValueError):
        SymmetricSpaceModel(rank=1, kind=SpaceKind.NON_TUBE, mult_short=3)
