import math

import numpy as np
import pytest

from levislice.levi import assemble
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.potential import (
    bergman_identify,
    killing_potential_invariant,
    killing_potential_modulus,
    moment_coefficient,
    potential_value,
    rho_hat,
)
from levislice.verify import _perturbed_potential


def rho_hat_d1(t: float) -> float:
    """(cosh t - 1)/sinh t, written as tanh(t/2) to avoid the 0/0 at t = 0."""
    return math.tanh(0.5 * t)


def rho_hat_d2(t: float) -> float:
    return 0.5 / math.cosh(0.5 * t) ** 2


def test_profile_normalization_and_closed_form():
    assert rho_hat(0.0) == pytest.approx(0.0, abs=1e-15)
    for t in (0.3, 2.0, 10.0, -4.0):
        assert rho_hat(t) == pytest.approx(math.log((math.cosh(t) + 1) / 2), rel=1e-13)
    assert rho_hat_d1(0.0) == 0.0
    assert rho_hat_d1(2.0) == pytest.approx(
        (math.cosh(2.0) - 1) / math.sinh(2.0), rel=1e-14
    )


def test_profile_is_stable_for_huge_arguments():
    v = rho_hat(800.0)
    assert math.isfinite(v)
    assert v == pytest.approx(800.0 - math.log(4.0), rel=1e-14)


def test_profile_identity_forcing_constant_blocks():
    # coth(t) rho_hat'(t) + rho_hat''(t) = 1
    for t in np.linspace(0.01, 10.0, 40):
        lhs = rho_hat_d1(t) / math.tanh(t) + rho_hat_d2(t)
        assert lhs == pytest.approx(1.0, abs=1e-12)


def test_profile_even_increasing():
    ts = np.linspace(0.1, 5.0, 25)
    for t in ts:
        assert rho_hat(t) == pytest.approx(rho_hat(-t), rel=1e-14)
        assert rho_hat_d1(t) > 0


def test_potential_value_examples():
    model = SymmetricSpaceModel(rank=1, killing_b=8.0)
    assert potential_value(model, [0.0]) == 0.0

    for rho in (0.2, 0.5, 0.9):
        a = math.atanh(rho)
        assert potential_value(model, [a]) == pytest.approx(
            -2.0 * math.log(1 - rho * rho), rel=1e-12
        )

    model2 = SymmetricSpaceModel(rank=2, killing_b=8.0)
    a = 0.7
    assert potential_value(model2, [a, a]) == pytest.approx(
        2.0 * potential_value(model, [a]), rel=1e-14
    )


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_potential_value_stack_equals_per_coordinate_sum(r):
    model = SymmetricSpaceModel(rank=r, killing_b=8.0)
    H = np.random.default_rng(r).uniform(-3.0, 3.0, size=(500, r))
    H[0] = 0.0
    values = potential_value(model, H)
    assert values.shape == (500,)
    for row, value in zip(H, values):
        assert value == 0.25 * model.killing_b * sum(rho_hat(2.0 * a) for a in row)


def test_moment_coefficient_closed_form():
    model = SymmetricSpaceModel(rank=2, killing_b=8.0)
    assert moment_coefficient(model, [0.0, 1.0], 0) == 0.0
    a = math.atanh(0.5)
    assert moment_coefficient(model, [a, 0.3], 0) == pytest.approx(
        -8.0 * math.sinh(a) ** 2, rel=1e-14
    )
    # cross-check the simplification -(b/2) sinh(2a) rho_hat'(2a)
    for aj in (0.2, 0.9, 2.5):
        direct = -0.5 * 8.0 * math.sinh(2 * aj) * rho_hat_d1(2 * aj)
        assert moment_coefficient(model, [aj, 0.0], 0) == pytest.approx(
            direct, rel=1e-13
        )
    rng = np.random.default_rng(0)
    for _ in range(20):
        H = rng.uniform(-3, 3, size=2)
        assert moment_coefficient(model, H, 1) <= 0.0


def test_moment_index_range():
    model = SymmetricSpaceModel(rank=2)
    with pytest.raises(IndexError):
        moment_coefficient(model, [0.1, 0.2], 2)


def test_bergman_identity_holds_for_b_eight():
    model = SymmetricSpaceModel(rank=1, killing_b=8.0)
    c, dev = bergman_identify(model, [0.1, 0.5, 0.9])
    assert abs(c) < 1e-12 and dev < 1e-12


def test_bergman_single_sample_has_zero_deviation():
    model = SymmetricSpaceModel(rank=1, killing_b=8.0)
    _, dev = bergman_identify(model, [0.4])
    assert dev == 0.0


def test_bergman_flags_wrong_scaling():
    model = SymmetricSpaceModel(rank=1, killing_b=16.0)
    _, dev = bergman_identify(model, np.linspace(0.05, 0.95, 50))
    assert dev > 1e-2


def test_bergman_requires_rank_one_and_valid_samples():
    with pytest.raises(ValueError):
        bergman_identify(SymmetricSpaceModel(rank=2), [0.5])
    model = SymmetricSpaceModel(rank=1)
    with pytest.raises(ValueError):
        bergman_identify(model, [])
    with pytest.raises(ValueError):
        bergman_identify(model, [1.0])


@pytest.mark.parametrize("kind,r", [
    (SpaceKind.TUBE, 1), (SpaceKind.TUBE, 3),
    (SpaceKind.NON_TUBE, 2), (SpaceKind.NON_TUBE, 4),
])
def test_levi_calibration_all_blocks_equal_b(kind, r):
    model = SymmetricSpaceModel(
        rank=r, kind=kind, mult_short=2 if kind is SpaceKind.NON_TUBE else 0,
        killing_b=8.0,
    )
    # the closed-form slice jets, and verify's perturbed potential with the
    # perturbation off: the t-expression -(b/4) sum_j log(1 - t_j)
    functions = [killing_potential_invariant(model),
                 _perturbed_potential(model, np.random.default_rng(3), epsilon=0.0)]
    for f in functions:
        rng = np.random.default_rng(9)
        for _ in range(50):
            H = rng.uniform(-2.5, 2.5, size=r)
            form = assemble(model, f, H)
            assert np.allclose(form.a_block, 8.0 * np.eye(r), atol=1e-9)
            for v in form.medium:
                assert v == pytest.approx(8.0, abs=1e-9)
            for v in form.short:
                assert v == pytest.approx(8.0, abs=1e-9)


def test_modulus_chart_potential_matches_slice_chart():
    from levislice.funcspace import to_slice

    model = SymmetricSpaceModel(rank=2, killing_b=8.0)
    f_slice = killing_potential_invariant(model)
    f_mod = killing_potential_modulus(model)
    rng = np.random.default_rng(12)
    for _ in range(10):
        H = rng.uniform(-1.5, 1.5, size=2)
        js = to_slice(f_slice, H)
        jm = to_slice(f_mod, H)
        assert js.value == pytest.approx(jm.value, rel=1e-12)
        assert np.allclose(js.grad, jm.grad, atol=1e-11)
        assert np.allclose(js.hess, jm.hess, atol=1e-10)
