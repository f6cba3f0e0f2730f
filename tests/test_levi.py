import itertools
import math

import numpy as np
import pytest

from levislice.funcspace import (
    Chart,
    InvariantFunction,
    Jet2,
    parse_invariant,
    to_slice,
)
from levislice.levi import (
    DEGENERACY_EPS,
    a_block_from_jet,
    assemble,
    congruence_check,
    medium_coeff_from_jet,
    medium_generic,
    medium_limit_equal,
    reinhardt_levi,
    short_coeff_from_jet,
)
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.potential import killing_potential_invariant, killing_potential_modulus

TUBE1 = SymmetricSpaceModel(rank=1, kind=SpaceKind.TUBE, killing_b=8.0)
TUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
NONTUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2,
                               killing_b=8.0)


def weyl_orbit(H):
    """Images of H under the signed permutations of its coordinates, the Weyl
    group's action on slice coordinates (with repeats where H is on a wall)."""
    H = np.asarray(H, dtype=float)
    return [np.array(signs) * H[list(perm)]
            for perm in itertools.permutations(range(len(H)))
            for signs in itertools.product((1.0, -1.0), repeat=len(H))]


def quadratic_slice(r):
    """f~(a) = sum a_j^2 as a slice-chart function."""
    return InvariantFunction(
        rank=r,
        chart=Chart.SLICE,
        eval_jet=lambda H: Jet2(float(np.sum(H * H)), 2.0 * H, 2.0 * np.eye(r)),
    )


# -- chamber block -------------------------------------------------------------


def test_a_block_quadratic():
    f = quadratic_slice(2)
    H = np.array([0.9, 0.4])
    M = assemble(TUBE2, f, H).a_block
    for j, a in enumerate(H):
        assert M[j, j] == pytest.approx(4.0 * a / math.tanh(2 * a) * 0.5 * 2 + 2.0)
        assert M[j, j] == pytest.approx(4.0 * a * (1.0 / math.tanh(2 * a)) + 2.0)
    assert M[0, 1] == 0.0

    M0 = assemble(TUBE2, f, np.zeros(2)).a_block
    assert np.allclose(M0, 4.0 * np.eye(2))


def test_a_block_quartic_counterexample_closed_form():
    f = parse_invariant("t1^2", 1)
    for a in (0.3, 0.7, 1.5):
        M = assemble(TUBE1, f, [a]).a_block
        assert M[0, 0] == pytest.approx(
            16.0 * math.tanh(a) ** 2 / math.cosh(a) ** 4, rel=1e-12
        )
    assert assemble(TUBE1, f, [0.0]).a_block[0, 0] == 0.0


def test_a_block_killing_is_constant():
    f = killing_potential_invariant(TUBE2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        H = rng.uniform(-2, 2, size=2)  # coordinate order, signs included
        M = a_block_from_jet(to_slice(f, H), H)[0]
        assert np.allclose(M, 8.0 * np.eye(2), atol=1e-12)


# -- medium coefficient ---------------------------------------------------------


def test_medium_killing_constant():
    f = killing_potential_invariant(TUBE2)
    rng = np.random.default_rng(2)
    for _ in range(20):
        H = np.sort(rng.uniform(0, 2, size=2))[::-1]
        assert assemble(TUBE2, f, H).medium[0] == pytest.approx(8.0, abs=1e-10)


def test_medium_quadratic_on_wall():
    f = quadratic_slice(2)
    a = 0.8
    val = assemble(TUBE2, f, [a, 0.0]).medium[0]
    assert val == pytest.approx(2 * a * math.sinh(2 * a) / math.sinh(a) ** 2, rel=1e-12)
    assert val == pytest.approx(4 * a / math.tanh(a), rel=1e-12)


def test_medium_equal_limit_matches_near_degenerate_evaluation():
    f = quadratic_slice(2)
    a = 0.65
    jet_on = to_slice(f, np.array([a, a]))
    limit = medium_limit_equal(jet_on, np.array([a, a]), 0, 1)
    assert limit == pytest.approx(4 * a / math.tanh(2 * a) + 2.0, rel=1e-12)
    H_off = np.array([a + 1e-8, a])
    generic = medium_generic(to_slice(f, H_off), H_off, 0, 1)
    assert generic == pytest.approx(limit, abs=1e-5)


# -- short coefficient -----------------------------------------------------------


def test_short_killing_constant():
    f = killing_potential_invariant(NONTUBE2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        H = rng.uniform(0.0, 2.0, size=2)
        form = assemble(NONTUBE2, f, H)
        for j in range(2):
            assert form.short[j] == pytest.approx(8.0, abs=1e-10)


def test_short_quadratic():
    f = quadratic_slice(2)
    a = 0.9
    assert assemble(NONTUBE2, f, [a, 0.3]).short[0] == pytest.approx(
        4 * a / math.tanh(a), rel=1e-12)
    H = np.array([0.0, 0.3])  # coordinate order: the limit at a_1 = 0
    assert short_coeff_from_jet(to_slice(f, H), H, 0)[0] == pytest.approx(4.0)


def test_short_quartic_vanishes_at_wall():
    f = parse_invariant("t1^2", 2)  # symmetrized quartic embedded in rank 2
    for a, want in ((0.0, 0.0), (1e-4, pytest.approx(0.0, abs=1e-6))):
        H = np.array([a, 0.8])  # coordinate order, so index 0 sits near the wall
        assert short_coeff_from_jet(to_slice(f, H), H, 0)[0] == want


def test_short_factor_switch():
    f = killing_potential_invariant(NONTUBE2)
    form = assemble(NONTUBE2, f, [1.1, 0.4], short_coeff_factor=1.0)
    assert form.short[0] == pytest.approx(4.0, abs=1e-10)


# -- assembly ---------------------------------------------------------------------


def test_assemble_rank_one_has_only_a_block():
    model = SymmetricSpaceModel(rank=1)
    form = assemble(model, parse_invariant("t1", 1), [0.6])
    assert form.a_block.shape == (1, 1)
    assert form.medium.shape == (0,) and form.short.shape == (0,)


def test_assemble_killing_tube():
    form = assemble(TUBE2, killing_potential_invariant(TUBE2), [1.0, 2.0])
    assert np.allclose(form.a_block, 8.0 * np.eye(2), atol=1e-12)
    assert form.medium[0] == pytest.approx(8.0, abs=1e-10)
    assert form.short.shape == (0,)


def test_assemble_killing_nontube():
    form = assemble(NONTUBE2, killing_potential_invariant(NONTUBE2), [1.0, 2.0])
    assert form.short[0] == pytest.approx(8.0, abs=1e-10)
    assert form.short[1] == pytest.approx(8.0, abs=1e-10)


def test_assemble_weyl_equivariance():
    f = parse_invariant("t1*t2 + 0.4*t1^2", 2)
    H = np.array([0.8, 1.3])
    base = assemble(TUBE2, f, H)
    for w_H in weyl_orbit(H):
        other = assemble(TUBE2, f, w_H)
        assert np.allclose(other.a_block, base.a_block, atol=1e-12)
        assert other.medium[0] == pytest.approx(base.medium[0], abs=1e-12)
        assert np.allclose(other.point, base.point)


def test_assemble_records_limit_flags():
    f = parse_invariant("t1 + t2", 2)
    form = assemble(TUBE2, f, [0.7, 0.7])
    assert any(flag.startswith("limit:m1,2") for flag in form.flags)
    form0 = assemble(TUBE2, f, [0.0, 0.0])
    assert "limit:a1" in form0.flags and "limit:a2" in form0.flags


def test_assemble_json_round_trip_fields():
    form = assemble(NONTUBE2, killing_potential_invariant(NONTUBE2), [0.5, 1.5])
    blob = form.to_json()
    assert len(blob["a_block"]) == 4
    assert blob["medium_coeff"][0]["j"] == 1 and blob["medium_coeff"][0]["l"] == 2
    assert {entry["j"] for entry in blob["short_coeff"]} == {1, 2}


# -- complex Hessian ---------------------------------------------------------------


def test_reinhardt_levi_quartic():
    f = parse_invariant("t1^2", 1)
    for z in (0.5, 0.3 + 0.4j):
        L = reinhardt_levi(f, [z])
        assert L[0, 0] == pytest.approx(4.0 * abs(z) ** 2, rel=1e-12)
    assert reinhardt_levi(f, [0.0])[0, 0] == 0.0


def test_reinhardt_levi_disc_potential():
    model = SymmetricSpaceModel(rank=1)
    f = killing_potential_modulus(model)
    for z in (0.2, 0.5 * np.exp(1.3j), 0.9):
        L = reinhardt_levi(f, [z])
        assert L[0, 0] == pytest.approx(2.0 / (1 - abs(z) ** 2) ** 2, rel=1e-12)


def test_reinhardt_levi_sum_of_squares_is_identity():
    f = parse_invariant("t1 + t2", 2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.uniform(0, 0.9, 2) * np.exp(1j * rng.uniform(0, 6.28, 2))
        assert np.allclose(reinhardt_levi(f, z), np.eye(2), atol=1e-12)


def test_reinhardt_levi_offdiag_vanishes_on_hyperplane():
    f = parse_invariant("t1*t2", 2)
    L = reinhardt_levi(f, [0.0, 0.5])
    assert L[0, 1] == 0.0
    assert L[1, 0] == 0.0


def test_reinhardt_levi_requires_modulus_chart():
    with pytest.raises(ValueError):
        reinhardt_levi(killing_potential_invariant(TUBE2), [0.1, 0.1])


# -- congruence --------------------------------------------------------------------


def test_congruence_simple_sum():
    f = parse_invariant("t1 + t2", 2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.uniform(0.05, 0.9, 2) * np.exp(1j * rng.uniform(0, 6.28, 2))
        assert congruence_check(f, z).discrepancy < 1e-8


def test_congruence_killing_modulus():
    f = killing_potential_modulus(SymmetricSpaceModel(rank=1))
    assert congruence_check(f, [0.5]).discrepancy < 1e-8


def test_congruence_at_origin():
    f = parse_invariant("t1^2", 1)
    rep = congruence_check(f, [0.0])
    assert rep.discrepancy == 0.0
    assert np.allclose(rep.complex_side, 0.0)


def test_congruence_rejects_boundary_point():
    f = parse_invariant("t1", 1)
    with pytest.raises(ValueError):
        congruence_check(f, [1.0])


# -- limit continuity property -------------------------------------------------------


@pytest.mark.parametrize("expr", ["t1 + t2", "t1*t2", "t1^2 + 0.3*t2", "exp(t1)+exp(t2)"])
def test_limit_continuity_across_branches(expr):
    f = parse_invariant(expr, 2)
    delta = 1e-8

    H_off = np.array([delta, 0.8])
    jet_off = to_slice(f, H_off)
    jet_on = to_slice(f, np.array([0.0, 0.8]))
    from levislice.levi import a_diag_generic, a_diag_limit, short_generic, short_limit

    assert a_diag_generic(jet_off, H_off, 0) == pytest.approx(
        a_diag_limit(jet_on, 0), abs=1e-5
    )
    assert short_generic(jet_off, H_off, 0) == pytest.approx(
        short_limit(jet_on, 0), abs=1e-5
    )

    a = 0.6
    H_off = np.array([a + delta, a])
    H_on = np.array([a, a])
    assert medium_generic(to_slice(f, H_off), H_off, 0, 1) == pytest.approx(
        medium_limit_equal(to_slice(f, H_on), H_on, 0, 1), abs=1e-5
    )

    H_off = np.array([2 * delta, delta])
    jet_zero = to_slice(f, np.zeros(2))
    assert medium_generic(to_slice(f, H_off), H_off, 0, 1) == pytest.approx(
        2.0 * jet_zero.hess[0, 0], abs=1e-5
    )


def test_branch_threshold_is_small():
    assert DEGENERACY_EPS == pytest.approx(1e-6)


# -- stacks ---------------------------------------------------------------------


def _stack_function(r, chart):
    # non-symmetric (symmetrized over r! permutations), with t^1 factors that
    # vanish on the hyperplanes, where a naive power jet would give 0 * 0^-1
    expr = ("t1^1*t2 + t2^2" if r > 1 else "t1^1 + t1^2") + " - 0.5*log(1 - t1)"
    f = parse_invariant(expr, r)
    if chart is Chart.MODULUS:
        return f
    # the Killing potential plus 0.3 f, summed as slice jets
    killing = killing_potential_invariant(SymmetricSpaceModel(rank=r))

    def eval_jet(H):
        a, b = to_slice(killing, H), to_slice(f, H)
        return Jet2(a.value + 0.3 * b.value, a.grad + 0.3 * b.grad, a.hess + 0.3 * b.hess)

    return InvariantFunction(rank=r, chart=Chart.SLICE, eval_jet=eval_jet,
                             symmetrized=f.symmetrized)


def _stack_points(r, rng):
    """Generic points, hyperplane points (a_j = 0), walls a_j = +-a_l, the origin."""
    points = [rng.uniform(0.1, 1.5, size=r) * rng.choice([-1.0, 1.0], size=r)
              for _ in range(4)]
    for j in range(r):
        H = rng.uniform(0.1, 1.5, size=r)
        H[j] = 0.0
        points.append(H)
        for l in range(j + 1, r):
            H = rng.uniform(0.1, 1.5, size=r)
            H[l] = H[j] * (-1.0 if l % 2 else 1.0)
            points.append(H)
    points.append(np.zeros(r))
    return np.array(points)


@pytest.mark.parametrize("chart", [Chart.SLICE, Chart.MODULUS])
@pytest.mark.parametrize("kind", [SpaceKind.TUBE, SpaceKind.NON_TUBE])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_stacked_assemble_equals_rows(r, kind, chart):
    model = SymmetricSpaceModel(rank=r, kind=kind,
                                mult_short=2 if kind is SpaceKind.NON_TUBE else 0)
    f = _stack_function(r, chart)
    points = _stack_points(r, np.random.default_rng(100 * r + 7))
    stack = assemble(model, f, points)
    assert stack.a_block.shape == (len(points), r, r)

    row_flags = []
    for i, H in enumerate(points):
        want = assemble(model, f, H)
        got = stack[i]
        scale = 1e-12 * max(1.0, float(np.max(np.abs(want.a_block))))
        np.testing.assert_allclose(got.point, want.point, rtol=0, atol=0)
        np.testing.assert_allclose(got.a_block, want.a_block, rtol=1e-12, atol=scale)
        assert got.medium.shape == want.medium.shape == (r * (r - 1) // 2,)
        assert got.short.shape == want.short.shape
        np.testing.assert_allclose(got.medium, want.medium, rtol=1e-12, atol=scale)
        np.testing.assert_allclose(got.short, want.short, rtol=1e-12, atol=scale)
        assert got.flags == want.flags
        row_flags += want.flags
    assert stack.flags == row_flags
    assert "limit:a1" in row_flags


@pytest.mark.parametrize("kind", [SpaceKind.TUBE, SpaceKind.NON_TUBE])
@pytest.mark.parametrize("r", [1, 3, 4])
def test_stacked_layout_matches_per_pair_formulas(r, kind):
    # the columns of ``medium``, ``short`` and ``limits`` against the formulas
    # evaluated one index pair and one index at a time
    model = SymmetricSpaceModel(rank=r, kind=kind,
                                mult_short=2 if kind is SpaceKind.NON_TUBE else 0)
    f = _stack_function(r, Chart.MODULUS)
    form = assemble(model, f, _stack_points(r, np.random.default_rng(r)))
    jet = to_slice(f, form.point)
    pairs = list(itertools.combinations(range(r), 2))
    nontube = kind is SpaceKind.NON_TUBE
    assert form.medium.shape == (len(form.point), len(pairs))
    assert form.short.shape == (len(form.point), r if nontube else 0)
    assert form.limits.dtype == bool
    assert form.limits.shape == (len(form.point), len(form.limit_names))

    names = [f"limit:a{j + 1}" for j in range(r)]
    for k, (j, l) in enumerate(pairs):
        value, origin, equal = medium_coeff_from_jet(jet, form.point, j, l)
        np.testing.assert_array_equal(form.medium[:, k], value)
        np.testing.assert_array_equal(
            form.limits[:, form.limit_names.index(f"limit:m{j + 1},{l + 1}:origin")], origin)
        np.testing.assert_array_equal(
            form.limits[:, form.limit_names.index(f"limit:m{j + 1},{l + 1}:equal")], equal)
        names += [f"limit:m{j + 1},{l + 1}:origin", f"limit:m{j + 1},{l + 1}:equal"]
    for j in range(r if nontube else 0):
        value, limit = short_coeff_from_jet(jet, form.point, j)
        np.testing.assert_array_equal(form.short[:, j], value)
        np.testing.assert_array_equal(form.limits[:, form.limit_names.index(f"limit:s{j + 1}")],
                                      limit)
        names.append(f"limit:s{j + 1}")
    assert list(form.limit_names) == names
