import itertools
import math

import numpy as np
import pytest

from levislice.funcspace import Chart, InvariantFunction, Jet2, add_invariant, parse_invariant
from levislice import pshcheck
from levislice.levi import assemble
from levislice.model import SpaceKind, SymmetricSpaceModel, weyl_orbit
from levislice.potential import killing_potential_invariant
from levislice.pshcheck import (
    BoundaryMinimumError,
    GridEvaluationError,
    Verdict,
    chamber_grid,
    check_invariant_psh,
    convess_G,
    convess_properties,
    locate_minimum,
)
from levislice.reinhardt import ReinhardtShadow
from levislice.verify import _annulus_exhaustion

TUBE1 = SymmetricSpaceModel(rank=1)
TUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
NONTUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2,
                               killing_b=8.0)

FULL1 = ReinhardtShadow(1, [((0.0,), (1.0,))])
FULL2 = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
ANNULUS = ReinhardtShadow(2, [((math.exp(-2.0),) * 2, (math.exp(-1.0),) * 2)])


def test_chamber_grid_contains_origin_and_is_sorted():
    grid = chamber_grid(FULL2, 4)
    assert any(np.allclose(H, 0.0) for H in grid)
    for H in grid:
        assert all(H[i] >= H[i + 1] for i in range(len(H) - 1))
        assert H[-1] >= 0


def _reference_grid(shadow, grid_n):
    """The chamber grid walked point by point over each box's index product."""
    seen, points = set(), []
    for lo, hi in shadow.boxes:
        axes = [[lo[j] + (hi[j] - lo[j]) * k / grid_n for k in range(grid_n)]
                for j in range(shadow.rank)]
        for rho in itertools.product(*axes):
            a = np.sort(np.arctanh(np.asarray(rho)))[::-1]
            key = tuple(np.round(a, 12))
            if key not in seen:
                seen.add(key)
                points.append(a)
    return np.array(points)


@pytest.mark.parametrize("shadow,grid_n", [
    (ReinhardtShadow(2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))]), 7),
    (ReinhardtShadow(2, [((0.0, 0.0), (0.9, 0.1)), ((0.0, 0.0), (0.1, 0.9))]), 6),
    (ReinhardtShadow(3, [((0.1, 0.2, 0.0), (0.6, 0.5, 0.3)),
                         ((0.2, 0.0, 0.2), (0.4, 0.7, 0.9))]), 5),
])
def test_chamber_grid_matches_pointwise_walk(shadow, grid_n):
    grid = chamber_grid(shadow, grid_n)
    reference = _reference_grid(shadow, grid_n)
    assert grid.shape == reference.shape
    assert np.array_equal(grid, reference)


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
    boosted = add_invariant(
        [weak, killing_potential_invariant(TUBE1)], weights=[1.0, 0.5]
    )
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
    monkeypatch.setattr(pshcheck, "CHUNK_ROWS", 2)  # the failure sits in a later chunk
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


def test_minimum_argmin_is_weyl_stable():
    rep = locate_minimum(killing_potential_invariant(TUBE2), FULL2, grid_n=8)
    f = killing_potential_invariant(TUBE2)
    from levislice.funcspace import to_slice

    base = to_slice(f, rep.point).value
    for image in weyl_orbit(rep.point):
        assert to_slice(f, image).value == pytest.approx(base, abs=1e-10)


def test_non_exhaustion_hits_boundary_error():
    f = parse_invariant("-(t1) - t2", 2)  # decreases toward the outer boundary
    with pytest.raises(BoundaryMinimumError):
        locate_minimum(f, ANNULUS, grid_n=8)
