import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from levislice.funcspace import Chart, InvariantFunction, Jet2, fd_jet, parse_invariant, to_slice
from levislice import levi, pshcheck
from levislice.levi import GridEvaluationError, assemble
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.potential import killing_potential_invariant
from levislice.pshcheck import (
    BoundaryMinimumError,
    GridSizeError,
    Verdict,
    chamber_grid,
    check_invariant_psh,
    convess_G,
    convess_properties,
    locate_minimum,
)
from levislice.reinhardt import ReinhardtShadow, chamber_cells
from levislice.verify import _annulus_exhaustion

TUBE1 = SymmetricSpaceModel(rank=1)
TUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
NONTUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2,
                               killing_b=8.0)

FULL1 = ReinhardtShadow(1, [((0.0,), (1.0,))])
FULL2 = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
ANNULUS = ReinhardtShadow(2, [((math.exp(-2.0),) * 2, (math.exp(-1.0),) * 2)])


def weyl_orbit(H):
    """Images of H under the signed permutations of its coordinates, the Weyl
    group's action on slice coordinates (with repeats where H is on a wall)."""
    H = np.asarray(H, dtype=float)
    return [np.array(signs) * H[list(perm)]
            for perm in itertools.permutations(range(len(H)))
            for signs in itertools.product((1.0, -1.0), repeat=len(H))]


def test_chamber_grid_contains_origin_and_is_sorted():
    grid = chamber_grid(FULL2, 4)
    assert any(np.allclose(H, 0.0) for H in grid)
    for H in grid:
        assert all(H[i] >= H[i + 1] for i in range(len(H) - 1))
        assert H[-1] >= 0


def _reference_grid(shadow, grid_n):
    """Every covered cell walked point by point over its index product, each
    point sorted into the chamber; grouped by chamber cell in lexicographic
    order, each group in lexicographic order of its reversed points."""
    cuts = shadow.cuts
    groups = {}
    for cell in np.argwhere(shadow.covered).tolist():
        axes = [[cuts[c] + (cuts[c + 1] - cuts[c]) * k / grid_n for k in range(grid_n)]
                for c in cell]
        group = groups.setdefault(tuple(sorted(cell, reverse=True)), set())
        for rho in itertools.product(*axes):
            group.add(tuple(np.sort(np.arctanh(np.asarray(rho)))[::-1]))
    points = [p for cell in sorted(groups) for p in sorted(groups[cell], key=lambda p: p[::-1])]
    return np.array(points), list(groups)


def _grid_count(cells, grid_n):
    """Sum over chamber cells of the product over runs of equal indices of
    C(grid_n + m - 1, m), m the run length."""
    return sum(math.prod(math.comb(grid_n + m - 1, m) for m in Counter(cell).values())
               for cell in cells)


GRID_SHADOWS = [
    (ReinhardtShadow(2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))]), 7),
    (ReinhardtShadow(2, [((0.0, 0.0), (0.9, 0.1)), ((0.0, 0.0), (0.1, 0.9))]), 6),
    (ReinhardtShadow(3, [((0.1, 0.2, 0.0), (0.6, 0.5, 0.3)),
                         ((0.2, 0.0, 0.2), (0.4, 0.7, 0.9))]), 5),
]


@pytest.mark.parametrize("shadow,grid_n", GRID_SHADOWS)
def test_chamber_grid_matches_pointwise_walk(shadow, grid_n):
    grid = chamber_grid(shadow, grid_n)
    reference, cells = _reference_grid(shadow, grid_n)
    assert np.array_equal(grid, reference)
    assert len(grid) == _grid_count(cells, grid_n)
    assert np.array_equal(chamber_cells(shadow), sorted(cells))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("lo", [0.0, 0.14])
@pytest.mark.parametrize("grid_n", [2, 5, 8])
def test_cube_grid_is_combinations_with_replacement_order(r, lo, grid_n):
    hi = 0.9
    shadow = ReinhardtShadow(r, [((lo,) * r, (hi,) * r)])
    axis = np.arctanh(lo + (hi - lo) * np.arange(grid_n) / grid_n)
    expected = np.array([axis[list(k[::-1])] for k in
                         itertools.combinations_with_replacement(range(grid_n), r)])
    grid = chamber_grid(shadow, grid_n)
    assert np.array_equal(grid, expected)
    assert len(grid) == _grid_count([(0,) * r], grid_n) == math.comb(grid_n + r - 1, r)


@pytest.mark.parametrize("shadow,grid_n", GRID_SHADOWS + [(FULL2, 9), (ANNULUS, 4)])
def test_grid_cap_is_exact(shadow, grid_n, monkeypatch):
    f = parse_invariant("t1 + 2*t2 + t2^2" if shadow.rank == 2 else "t1 + 2*t2 + t3^2",
                        shadow.rank)
    model = SymmetricSpaceModel(rank=shadow.rank)
    jets = len(chamber_grid(shadow, grid_n)) * f.jet_rows
    monkeypatch.setattr(pshcheck, "MAX_GRID_JETS", jets)
    check_invariant_psh(model, f, shadow, grid_n=grid_n)
    monkeypatch.setattr(pshcheck, "MAX_GRID_JETS", jets - 1)
    with pytest.raises(GridSizeError, match=f"= {jets} jet rows, over the cap of {jets - 1}"):
        check_invariant_psh(model, f, shadow, grid_n=grid_n)


def test_killing_is_strictly_psh_on_full_shadow():
    report = check_invariant_psh(NONTUBE2, killing_potential_invariant(NONTUBE2),
                                 FULL2, grid_n=8)
    assert report.verdict is Verdict.STRICTLY_PSH
    assert report.min_a_block_eig == pytest.approx(8.0, abs=1e-9)
    assert report.min_medium == pytest.approx(8.0, abs=1e-9)
    assert report.min_short == pytest.approx(8.0, abs=1e-9)


def test_quartic_counterexample_not_strict_with_origin_witness():
    report = check_invariant_psh(TUBE1, parse_invariant("t1^2", 1), FULL1, grid_n=16)
    assert report.verdict is Verdict.PSH_NOT_STRICT
    assert abs(report.witness_point[0]) < 1e-6
    assert report.min_a_block_eig == 0.0


def test_negative_square_is_not_psh():
    report = check_invariant_psh(TUBE1, parse_invariant("-(t1)", 1), FULL1, grid_n=8)
    assert report.verdict is Verdict.NOT_PSH
    assert report.min_a_block_eig < -1e-3


def test_nontube_strictness_on_noncomplete_shadow_is_inconclusive():
    f = killing_potential_invariant(NONTUBE2)
    report = check_invariant_psh(NONTUBE2, f, ANNULUS, grid_n=6)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert not report.stein_shadow


def test_nontube_negative_on_noncomplete_shadow_still_not_psh():
    f = parse_invariant("-(t1) - t2", 2)
    report = check_invariant_psh(NONTUBE2, f, ANNULUS, grid_n=6)
    assert report.verdict is Verdict.NOT_PSH


def test_verdict_monotone_under_adding_potential():
    weak = parse_invariant("t1^2", 1)  # psh, not strict
    report = check_invariant_psh(TUBE1, weak, FULL1, grid_n=12)
    assert report.verdict is Verdict.PSH_NOT_STRICT
    # plus half the potential (b/4) rho_hat(2 a_1) = -(b/4) log(1 - t1)
    boosted = parse_invariant(f"t1^2 - 0.5*{TUBE1.killing_b / 4}*log(1 - t1)", 1)
    report2 = check_invariant_psh(TUBE1, boosted, FULL1, grid_n=12)
    assert report2.verdict is Verdict.STRICTLY_PSH


def test_grid_refinement_never_flips_strict_to_not_psh():
    f = killing_potential_invariant(TUBE2)
    coarse = check_invariant_psh(TUBE2, f, FULL2, grid_n=4)
    fine = check_invariant_psh(TUBE2, f, FULL2, grid_n=8)
    assert coarse.verdict is Verdict.STRICTLY_PSH
    assert fine.verdict is Verdict.STRICTLY_PSH
    assert fine.min_a_block_eig <= coarse.min_a_block_eig + 1e-12


def test_grid_evaluation_error_carries_point():
    def bad(H):
        raise RuntimeError("boom")

    f = InvariantFunction(rank=1, chart=Chart.SLICE, eval_jet=bad)
    with pytest.raises(GridEvaluationError) as exc:
        check_invariant_psh(TUBE1, f, FULL1, grid_n=4)
    assert exc.value.point.shape == (1,)


@pytest.mark.parametrize("expr", [
    "log(0.45 - t1)",        # the jet raises on part of the grid
    "exp(exp(exp(5*t1)))",   # the jet overflows on part of the grid
])
def test_partial_grid_failure_reports_first_failing_point(expr, monkeypatch):
    monkeypatch.setattr(levi, "CHUNK_FLOATS", 2)  # 2-row chunks: the failure sits in a later one
    f = parse_invariant(expr, 1)
    grid = chamber_grid(FULL1, 8)
    failing = []
    for i, H in enumerate(grid):
        try:
            assemble(TUBE1, f, H)
        except ArithmeticError:
            failing.append(i)
    assert 2 <= failing[0] < len(grid) - 1
    with pytest.raises(GridEvaluationError) as exc:
        check_invariant_psh(TUBE1, f, FULL1, grid_n=8)
    assert np.array_equal(exc.value.point, grid[failing[0]])
    assert isinstance(exc.value.__cause__, ArithmeticError)


def test_rank_eight_symmetrized_grid_stays_within_memory():
    # 9 chamber points x 8! permutations; whole-grid batches and the kept
    # (8!, 8, 8, 8) seed Hessians used to peak near 0.5 GB here
    r = 8
    model = SymmetricSpaceModel(rank=r)
    shadow = ReinhardtShadow(r, [((0.0,) * r, (0.9,) * r)])
    f = parse_invariant("t1 + 2*t2", r)
    assert f.symmetrized
    tracemalloc.start()
    try:
        report = check_invariant_psh(model, f, shadow, grid_n=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.STRICTLY_PSH
    assert peak < 200 * 2**20


def test_report_serialization():
    report = check_invariant_psh(TUBE1, parse_invariant("t1", 1), FULL1, grid_n=4)
    blob = report.to_json()
    assert blob["verdict"] == "strictly_psh"
    assert blob["min_short"] is None  # tube: no short block
    assert blob["min_medium"] is None  # rank one: no medium block


# -- rank-two diagnostics --------------------------------------------------------


def test_convess_G_quadratic_on_wall():
    f = InvariantFunction(
        rank=2,
        chart=Chart.SLICE,
        eval_jet=lambda H: Jet2(float(np.sum(H * H)), 2.0 * H, 2.0 * np.eye(2)),
    )
    a = 0.8
    val = convess_G(f, (1.0, 1.0), (a, 0.0))
    assert val == pytest.approx(2 * a * math.sinh(2 * a) / math.sinh(a) ** 2, rel=1e-12)
    assert val == pytest.approx(4 * a / math.tanh(a), rel=1e-12)


def test_convess_G_symmetric_under_swap():
    f = parse_invariant("t1 + t2 + 0.2*t1*t2", 2)
    a = (0.9, 0.4)
    assert convess_G(f, (1.0, 1.0), a) == pytest.approx(
        convess_G(f, (1.0, 1.0), (a[1], a[0])), rel=1e-12
    )


def test_convess_G_degenerate_denominator():
    f = parse_invariant("t1 + t2", 2)
    with pytest.raises(ValueError):
        convess_G(f, (1.0, 1.0), (0.5, 0.5))


def test_convess_properties_simple_sum():
    f = parse_invariant("t1 + t2", 2)
    report = convess_properties(f)
    assert report.all_pass
    assert report.min_positive_slope > 0


def test_convess_properties_killing():
    f = killing_potential_invariant(TUBE2)
    report = convess_properties(f)
    assert report.all_pass
    # slope has the closed form (b/2) tanh a_1
    jet_grad = report.min_positive_slope
    assert jet_grad > 0


def test_convess_falsification_for_unequal_weights():
    f = killing_potential_invariant(TUBE2)
    values = [convess_G(f, (2.0, 1.0), (a - 0.05, a)) for a in (0.3, 0.6, 1.0)]
    assert min(values) < 0


# -- minimum location ---------------------------------------------------------------


def test_minimum_of_killing_on_full_shadow_is_origin():
    rep = locate_minimum(killing_potential_invariant(TUBE2), FULL2, grid_n=12)
    assert rep.at_origin
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_minimum_of_annulus_exhaustion_is_diagonal():
    lo, hi = 0.15, 0.55
    shadow = ReinhardtShadow(2, [((lo, lo), (hi, hi))])
    rep = locate_minimum(_annulus_exhaustion(lo, hi), shadow, grid_n=12)
    assert rep.on_diagonal
    assert not rep.at_origin
    assert abs(rep.point[0] - rep.point[1]) < 1e-6


def test_annulus_exhaustion_matches_closed_form_in_a():
    # oracle: fd_jet of the exhaustion written in a, with log rho_j = log tanh a_j
    lo, hi = 0.15, 0.55
    slo, shi = math.log(lo), math.log(hi)
    f = _annulus_exhaustion(lo, hi)

    def closed_form(a):
        s = np.log(np.tanh(a))
        return float(2.0 * np.sum(s * s) - np.sum(np.log(s - slo)) - np.sum(np.log(shi - s)))

    # log-moduli in the middle three fifths of (log lo, log hi): nearer the
    # barriers the O(h^2) error of fd_jet outgrows its tolerances
    rng = np.random.default_rng(17)
    for _ in range(50):
        H = np.arctanh(np.exp(slo + (shi - slo) * rng.uniform(0.2, 0.8, size=2)))
        jet = to_slice(f, H)
        oracle = fd_jet(closed_form, H)
        assert jet.value == pytest.approx(closed_form(H), rel=1e-12)
        assert np.allclose(jet.grad, oracle.grad, atol=max(1e-6, 1e-4 * abs(jet.value)))
        assert np.allclose(jet.hess, oracle.hess, atol=max(1e-4, 1e-3 * abs(jet.value)))


def test_minimum_argmin_is_weyl_stable():
    rep = locate_minimum(killing_potential_invariant(TUBE2), FULL2, grid_n=8)
    f = killing_potential_invariant(TUBE2)

    base = to_slice(f, rep.point).value
    for image in weyl_orbit(rep.point):
        assert to_slice(f, image).value == pytest.approx(base, abs=1e-10)


def test_equal_shadows_give_the_same_minimum():
    # the unit square, once as one box and once split at rho_1 = 0.5, through
    # which the minimiser rho = (0.5, 0.5) of this function passes
    whole = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
    split = ReinhardtShadow(2, [((0.0, 0.0), (0.5, 1.0)), ((0.5, 0.0), (1.0, 1.0))])
    assert whole == split
    f = parse_invariant("(t1-0.25)^2+(t2-0.25)^2", 2)
    rep = locate_minimum(f, whole, grid_n=12)
    assert rep.on_diagonal and rep.point[0] == pytest.approx(math.atanh(0.5), abs=1e-9)
    assert locate_minimum(f, split, grid_n=12).to_json() == rep.to_json()


def test_minimum_at_an_uncovered_corner_hits_boundary_error():
    # the L-shape misses the cell [0.5, 1)^2, whose corner is the minimiser
    shadow = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 0.5)), ((0.0, 0.0), (0.5, 1.0))])
    f = parse_invariant("(t1-0.25)^2+(t2-0.25)^2", 2)
    with pytest.raises(BoundaryMinimumError):
        locate_minimum(f, shadow, grid_n=12)


def test_non_exhaustion_hits_boundary_error():
    f = parse_invariant("-(t1) - t2", 2)  # decreases toward the outer boundary
    with pytest.raises(BoundaryMinimumError):
        locate_minimum(f, ANNULUS, grid_n=8)
