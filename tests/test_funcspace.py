import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levislice.funcspace import (
    ExpressionError,
    Jet2,
    fd_jet,
    jet_exp,
    jet_log,
    jet_tanh,
    parse_invariant,
    to_slice,
)
from levislice.model import SymmetricSpaceModel
from levislice.potential import killing_potential_invariant


# -- Jet2 arithmetic ---------------------------------------------------------


def variable(x: float, index: int, r: int) -> Jet2:
    """The jet of coordinate ``index`` of R^r at the value x."""
    g = np.zeros(r)
    g[index] = 1.0
    return Jet2(x, g, np.zeros((r, r)), _symmetrize=False)


def test_jet_arithmetic_against_finite_differences():
    def f_plain(x):
        return math.exp(x[0]) * math.tanh(x[1]) + x[0] ** 3 / (1.0 + x[1] ** 2)

    def f_jet(x):
        u = variable(x[0], 0, 2)
        v = variable(x[1], 1, 2)
        return jet_exp(u) * jet_tanh(v) + u**3 / (1.0 + v**2)

    x = np.array([0.4, -0.8])
    jet = f_jet(x)
    oracle = fd_jet(f_plain, x, h=1e-4)
    assert jet.value == pytest.approx(f_plain(x), rel=1e-14)
    assert np.allclose(jet.grad, oracle.grad, atol=1e-7)
    assert np.allclose(jet.hess, oracle.hess, atol=1e-5)


def test_jet_pow_at_zero_base():
    u = variable(0.0, 0, 1)
    sq = u**2
    assert sq.value == 0.0 and sq.grad[0] == 0.0 and sq.hess[0, 0] == 2.0
    cube = u**3
    assert cube.hess[0, 0] == 0.0


def test_jet_log_domain():
    with pytest.raises(ArithmeticError):
        jet_log(Jet2.constant(-1.0, 1))


def test_hessian_symmetrization_guard():
    with pytest.raises(ValueError):
        Jet2(0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


# -- finite-difference oracle -------------------------------------------------


def test_fd_jet_quadratic_is_nearly_exact():
    jet = fd_jet(lambda x: x[0] ** 2, np.array([1.0]), h=1e-4)
    assert jet.grad[0] == pytest.approx(2.0, abs=1e-7)
    assert jet.hess[0, 0] == pytest.approx(2.0, abs=1e-5)


def test_fd_jet_sine():
    jet = fd_jet(lambda x: math.sin(x[0]), np.array([0.0]), h=1e-4)
    assert jet.grad[0] == pytest.approx(1.0, abs=1e-8)
    assert jet.hess[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_fd_jet_matches_killing_slice_jet():
    model = SymmetricSpaceModel(rank=2)
    f = killing_potential_invariant(model)
    rng = np.random.default_rng(7)
    for _ in range(5):
        H = rng.uniform(-1.5, 1.5, size=2)
        jet = to_slice(f, H)
        oracle = fd_jet(lambda x: to_slice(f, x).value, H)
        assert np.allclose(jet.grad, oracle.grad, atol=1e-6)
        assert np.allclose(jet.hess, oracle.hess, atol=1e-4)


def test_fd_jet_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_jet(lambda x: x[0], np.array([0.0]), h=0.0)


# -- chart conversion ----------------------------------------------------------


def test_to_slice_modulus_chain_rule():
    f = parse_invariant("t1", 1)  # rho^2
    a = 0.9
    jet = to_slice(f, [a])
    assert jet.value == pytest.approx(math.tanh(a) ** 2, rel=1e-14)
    assert jet.grad[0] == pytest.approx(
        2.0 * math.tanh(a) / math.cosh(a) ** 2, rel=1e-12
    )


def test_to_slice_quartic_is_flat_at_origin():
    f = parse_invariant("t1^2", 1)  # rho^4
    jet = to_slice(f, [0.0])
    assert jet.value == 0.0
    assert jet.grad[0] == 0.0
    assert jet.hess[0, 0] == 0.0


# -- parser --------------------------------------------------------------------


def test_parse_symmetric_expression_not_flagged():
    f = parse_invariant("t1 + t2", 2)
    assert not f.symmetrized
    jet = f.eval_jet(np.array([0.3, 0.4]))
    assert jet.value == pytest.approx(0.09 + 0.16, rel=1e-14)


def test_parse_asymmetric_expression_is_symmetrized():
    f = parse_invariant("t1*t2^2", 2)
    assert f.symmetrized
    t1, t2 = 0.09, 0.25  # rho = 0.3, 0.5
    expected = 0.5 * (t1 * t2**2 + t1**2 * t2)
    jet = f.eval_jet(np.array([0.3, 0.5]))
    assert jet.value == pytest.approx(expected, rel=1e-13)


def test_parse_counterexample_function():
    f = parse_invariant("t1^2", 1)
    jet = f.eval_jet(np.array([0.5]))
    assert jet.value == pytest.approx(0.5**4, rel=1e-14)


def test_parse_functions_and_precedence():
    f = parse_invariant("exp(-t1) + 2*t1^2 - t1/2", 1)
    rho = 0.6
    t = rho * rho
    expected = math.exp(-t) + 2 * t**2 - t / 2
    assert f.eval_jet(np.array([rho])).value == pytest.approx(expected, rel=1e-13)


def test_parse_power_right_assoc_and_unary():
    f = parse_invariant("t1^-1", 1)
    assert f.eval_jet(np.array([0.5])).value == pytest.approx(1.0 / 0.25, rel=1e-13)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as exc:
        parse_invariant("t1 + * t2", 2)
    assert exc.value.position == 5


def test_parse_unknown_identifier():
    with pytest.raises(ExpressionError) as exc:
        parse_invariant("sin(t1)", 1)
    assert "sin" in str(exc.value)


def test_parse_rank_mismatch():
    with pytest.raises(ExpressionError) as exc:
        parse_invariant("t3", 2)
    assert "rank" in str(exc.value)
    with pytest.raises(ExpressionError):
        parse_invariant("t0", 1)


def test_parse_unbalanced_parens():
    with pytest.raises(ExpressionError):
        parse_invariant("(t1 + t2", 2)


# -- structural invariants -------------------------------------------------------


@pytest.mark.parametrize("expr,r", [
    ("t1 + t2", 2),
    ("t1*t2", 2),
    ("exp(t1) + exp(t2)", 2),
    ("t1^2 - 0.5*t1", 1),
    ("t1*t2^2 + 0.1*t3", 3),
])
def test_chain_rule_consistency_random_points(expr, r):
    f = parse_invariant(expr, r)
    rng = np.random.default_rng(42)
    for _ in range(100):
        H = rng.uniform(-1.5, 1.5, size=r)
        jet = to_slice(f, H)
        oracle = fd_jet(lambda x: to_slice(f, x).value, H)
        tol_g = max(1e-6, 1e-4 * abs(jet.value))
        assert np.allclose(jet.grad, oracle.grad, atol=tol_g)
        assert np.allclose(jet.hess, oracle.hess, atol=max(1e-4, 1e-3 * abs(jet.value)))


@pytest.mark.parametrize("expr,r", [("t1 + 0.3*t2", 2), ("t1^2*t2", 2), ("t1", 1)])
def test_evenness_gradient_vanishes_on_walls(expr, r):
    f = parse_invariant(expr, r)
    rng = np.random.default_rng(3)
    for j in range(r):
        for _ in range(5):
            H = rng.uniform(0.2, 1.2, size=r)
            H[j] = 0.0
            jet = to_slice(f, H)
            assert abs(jet.grad[j]) < 1e-10


def test_log_chart_matrix_identity():
    # chamber-block matrix equals the Hessian in s = log rho scaled by
    # 4 / (sinh 2a_j sinh 2a_l), at interior points
    from levislice.levi import a_block_from_jet

    rng = np.random.default_rng(11)
    f = parse_invariant("t1*t2 + 0.5*t1 + 0.5*t2", 2)
    for _ in range(10):
        H = rng.uniform(0.2, 1.5, size=2)
        M = a_block_from_jet(to_slice(f, H), H)[0]
        rho = np.tanh(H)
        jet_rho = f.eval_jet(rho)
        # Hessian of f-hat(s) = f(e^s) via the chain rule in rho
        ghat = jet_rho.grad * rho
        hhat = jet_rho.hess * np.outer(rho, rho) + np.diag(jet_rho.grad * rho)
        scale = 4.0 / np.outer(np.sinh(2 * H), np.sinh(2 * H))
        assert np.allclose(M, scale * hhat, rtol=1e-8)
        assert np.all(np.abs(ghat) >= 0)  # sanity: computed without error


@settings(max_examples=50, deadline=None)
@given(st.floats(0.05, 1.4), st.floats(0.05, 1.4))
def test_parsed_function_weyl_invariance(a1, a2):
    f = parse_invariant("t1*t2^2 + 0.7*t1", 2)
    v1 = to_slice(f, [a1, a2]).value
    assert to_slice(f, [a2, a1]).value == pytest.approx(v1, abs=1e-10)
    assert to_slice(f, [-a1, a2]).value == pytest.approx(v1, abs=1e-10)
