import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice.model import (
    MAX_ORBIT_RANK,
    SignedPermutation,
    SpaceKind,
    SymmetricSpaceModel,
    positive_roots,
    weyl_orbit,
    weyl_reduce,
)


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


def test_weyl_reduce_examples():
    dom, w = weyl_reduce([0.0, 0.0])
    assert np.allclose(dom, [0.0, 0.0]) and w.is_identity

    dom, w = weyl_reduce([-1.0, 2.0])
    assert np.allclose(dom, [2.0, 1.0])
    assert np.allclose(w.apply([-1.0, 2.0]), dom)

    dom, w = weyl_reduce([3.0, -3.0])
    assert np.allclose(dom, [3.0, 3.0])
    assert np.allclose(w.inverse().apply(dom), [3.0, -3.0])


@settings(max_examples=200)
@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=6))
def test_weyl_reduce_idempotent_and_invertible(H):
    dom, w = weyl_reduce(H)
    assert all(dom[i] >= dom[i + 1] for i in range(len(dom) - 1))
    assert dom[-1] >= 0
    dom2, w2 = weyl_reduce(dom)
    assert np.array_equal(dom, dom2) and w2.is_identity
    assert np.allclose(w.inverse().apply(dom), H, atol=1e-12)


def test_signed_permutation_compose_and_inverse():
    w1 = SignedPermutation((1, 0), (1, -1))
    w2 = SignedPermutation((0, 1), (-1, 1))
    H = np.array([0.3, -0.7])
    assert np.allclose(w1.compose(w2).apply(H), w1.apply(w2.apply(H)))
    assert np.allclose(w1.inverse().apply(w1.apply(H)), H)


def test_weyl_orbit_rank_cap():
    assert len(weyl_orbit([0.3, -0.7])) == 8
    with pytest.raises(ValueError):
        weyl_orbit(np.zeros(MAX_ORBIT_RANK + 1))
