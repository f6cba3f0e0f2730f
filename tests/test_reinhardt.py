import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levislice.cli import main
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.reinhardt import (
    MAX_MASK_CELLS,
    ReinhardtShadow,
    classify_domain,
    envelope,
    is_complete,
    is_connected,
    is_log_convex,
    is_stein,
)

E1, E2 = math.exp(-1.0), math.exp(-2.0)
TUBE = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE)
NONTUBE = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2)


def full(r=2):
    return ReinhardtShadow(r, [((0.0,) * r, (1.0,) * r)])


def annulus():
    return ReinhardtShadow(2, [((E2, E2), (E1, E1))])


# -- construction ---------------------------------------------------------------


def test_construction_validates_bounds():
    with pytest.raises(ValueError):
        ReinhardtShadow(1, [((0.5,), (0.5,))])
    with pytest.raises(ValueError):
        ReinhardtShadow(1, [((-0.1,), (0.5,))])
    with pytest.raises(ValueError):
        ReinhardtShadow(1, [((0.0,), (1.1,))])
    with pytest.raises(ValueError):
        ReinhardtShadow(2, [])


def test_symmetrization_flag_and_closure():
    asym = ReinhardtShadow(2, [((0.1, 0.5), (0.2, 0.6))])
    assert asym.symmetrized
    assert asym.contains([0.15, 0.55]) and asym.contains([0.55, 0.15])

    sym = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2))])
    assert not sym.symmetrized


def test_canonical_boxes_are_disjoint():
    S = ReinhardtShadow(1, [((0.0,), (0.6,)), ((0.4,), (1.0,))])
    assert S.boxes == [((0.0,), (1.0,))]


def test_equality_is_set_equality():
    a = ReinhardtShadow(1, [((0.0,), (1.0,))])
    b = ReinhardtShadow(1, [((0.0,), (0.5,)), ((0.5,), (1.0,))])
    assert a == b
    c = ReinhardtShadow(1, [((0.0,), (0.9,))])
    assert a != c


def test_contains_half_open_semantics():
    S = ReinhardtShadow(1, [((0.2,), (0.6,))])
    assert S.contains([0.2]) and S.contains([0.59])
    assert not S.contains([0.6]) and not S.contains([0.19])


# -- completeness ------------------------------------------------------------------


def test_full_polydisk_is_complete():
    assert is_complete(full())


def test_annulus_is_not_complete():
    assert not is_complete(annulus())


def test_union_staircase_is_complete():
    S = ReinhardtShadow(
        2, [((0.0, 0.0), (1.0, 0.5)), ((0.0, 0.0), (0.5, 1.0))]
    )
    assert is_complete(S)


def test_l_shape_is_not_complete():
    S = ReinhardtShadow(2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))])
    assert S.contains([0.7, 0.1])
    assert not S.contains([0.1, 0.1])
    assert not is_complete(S)


def down_closure(S):
    """The shadow with every box grown down to the origin."""
    return ReinhardtShadow(S.rank, [((0.0,) * S.rank, hi) for _, hi in S.boxes])


def test_down_closure_commutes_with_symmetrization():
    box = ((0.3, 0.1), (0.5, 0.9))
    sym_then_down = down_closure(ReinhardtShadow(2, [box]))
    down_then_sym = ReinhardtShadow(
        2, [((0.0, 0.0), box[1])]
    )
    assert sym_then_down == down_then_sym


# -- connectedness -------------------------------------------------------------------


def test_complete_shadow_is_connected():
    assert is_connected(full())


def test_separated_squares_are_disconnected():
    S = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))])
    assert not is_connected(S)


def test_annulus_is_connected():
    assert is_connected(annulus())


def test_corner_touching_counts_as_adjacent():
    S = ReinhardtShadow(2, [((0.0, 0.0), (0.5, 0.5)), ((0.5, 0.5), (1.0, 1.0))])
    assert is_connected(S)


# -- log convexity --------------------------------------------------------------------


def test_annulus_is_log_convex():
    assert is_log_convex(annulus())


def test_two_squares_are_not_log_convex():
    S = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))])
    assert not is_log_convex(S)


def test_full_polydisk_is_log_convex():
    assert is_log_convex(full())


def test_hole_shadow_is_not_stein():
    # [0.3, 0.8)^2 minus the hole [0.5, 0.55)^2
    S = ReinhardtShadow(2, [((0.3, 0.3), (0.8, 0.5)), ((0.3, 0.55), (0.8, 0.8)),
                            ((0.3, 0.5), (0.5, 0.55)), ((0.55, 0.5), (0.8, 0.55))])
    assert not is_log_convex(S)
    result = classify_domain(TUBE, S)
    assert result.verdict == "not_stein"
    assert result.reasons == ["shadow is not logarithmically convex"]


# -- steinness --------------------------------------------------------------------------


def test_annulus_is_stein():
    assert is_stein(annulus())


def test_full_polydisk_is_stein():
    assert is_stein(full())


def test_l_shape_is_not_stein():
    S = ReinhardtShadow(2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))])
    assert not is_stein(S)


# -- classification ------------------------------------------------------------------------


def test_classify_tube_annulus_stein():
    assert classify_domain(TUBE, annulus()).stein


def test_classify_nontube_annulus_not_stein():
    result = classify_domain(NONTUBE, annulus())
    assert not result.stein
    assert any("complete" in reason for reason in result.reasons)


def test_classify_tube_disconnected_not_stein():
    S = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))])
    result = classify_domain(TUBE, S)
    assert not result.stein
    assert any("connected" in reason for reason in result.reasons)


def test_classify_rank_mismatch():
    with pytest.raises(ValueError):
        classify_domain(TUBE, full(1))


# -- envelope ---------------------------------------------------------------------------------


def test_envelope_fixpoint_on_stein_input():
    S = annulus()
    assert envelope(TUBE, S) is S


def test_envelope_joins_disconnected_annuli_tube():
    S = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))])
    env = envelope(TUBE, S)
    assert classify_domain(TUBE, env).stein
    # the log-segment midpoint of the two squares is now included
    assert env.contains([math.sqrt(0.15 * 0.55)] * 2)


def test_envelope_completes_for_nontube():
    env = envelope(NONTUBE, annulus())
    assert classify_domain(NONTUBE, env).stein
    assert is_complete(env)
    assert env.contains([0.0, 0.0])
    assert env.contains([E1 - 1e-6, E1 - 1e-6])
    assert not env.contains([0.6, 0.6])


def test_nontube_annulus_envelope_is_the_exact_square():
    assert envelope(NONTUBE, annulus()) == ReinhardtShadow(2, [((0.0, 0.0), (E1, E1))])


def test_tube_two_annuli_envelope_is_the_bounding_square():
    S = ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))])
    assert envelope(TUBE, S) == ReinhardtShadow(2, [((0.1, 0.1), (0.6, 0.6))])


def test_envelope_extensive_and_idempotent():
    cases = [
        (TUBE, ReinhardtShadow(2, [((0.1, 0.1), (0.2, 0.2)),
                                   ((0.5, 0.5), (0.6, 0.6))])),
        (NONTUBE, annulus()),
        (TUBE, ReinhardtShadow(2, [((0.5, 0.0), (1.0, 1.0)),
                                   ((0.0, 0.5), (0.5, 1.0))])),
    ]
    rng = np.random.default_rng(8)
    for model, S in cases:
        env = envelope(model, S)
        for _ in range(200):
            rho = rng.uniform(0, 1, size=2)
            if S.contains(rho):
                assert env.contains(rho)
        assert envelope(model, env) == env


def test_envelope_monotone():
    small = ReinhardtShadow(2, [((0.3, 0.3), (0.4, 0.4)), ((0.6, 0.6), (0.7, 0.7))])
    large = ReinhardtShadow(2, [((0.25, 0.25), (0.45, 0.45)),
                                ((0.55, 0.55), (0.75, 0.75))])
    env_small = envelope(TUBE, small)
    env_large = envelope(TUBE, large)
    rng = np.random.default_rng(10)
    for _ in range(300):
        rho = rng.uniform(0, 1, size=2)
        if env_small.contains(rho):
            assert env_large.contains(rho)


def test_envelope_rank_one():
    S = ReinhardtShadow(1, [((0.1,), (0.2,)), ((0.5,), (0.6,))])
    env = envelope(TUBE1 := SymmetricSpaceModel(rank=1), S)
    assert classify_domain(TUBE1, env).stein
    assert env.contains([0.35])


# -- hypothesis: random unions stay consistent -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0.05, 0.7), st.floats(0.05, 0.25)),
        min_size=1,
        max_size=3,
    )
)
def test_random_unions_classify_and_envelope(boxes):
    shadow_boxes = []
    for lo, width in boxes:
        hi = min(lo + width, 0.99)
        if hi <= lo:
            continue
        shadow_boxes.append(((lo, lo), (hi, hi)))
    if not shadow_boxes:
        return
    S = ReinhardtShadow(2, shadow_boxes)
    env = envelope(TUBE, S)
    assert classify_domain(TUBE, env).stein
    assert envelope(TUBE, env) == env


# -- the cell mask against a set-of-cells reference ----------------------------
#
# The reference keeps the cut-cell decomposition as a set of index tuples and
# walks it with plain loops; membership is decided on the input boxes and
# their coordinate permutations directly.

LEVELS = (0.0, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0)
PROBES = sorted(set(LEVELS) | {0.5 * (a + b) for a, b in zip(LEVELS, LEVELS[1:])}
                | {-0.1, 0.999})


def _ref_cells(rank, boxes, cuts):
    index = {c: i for i, c in enumerate(cuts)}
    cells = set()
    for lo, hi in boxes:
        for perm in itertools.permutations(range(rank)):
            ranges = [range(index[lo[p]], index[hi[p]]) for p in perm]
            cells.update(itertools.product(*ranges))
    return cells


def _input_cells(boxes, cuts):
    index = {c: i for i, c in enumerate(cuts)}
    return {cell for lo, hi in boxes
            for cell in itertools.product(*[range(index[l], index[h])
                                            for l, h in zip(lo, hi)])}


def _ref_complete(cells):
    return all(cell[:j] + (cell[j] - 1,) + cell[j + 1:] in cells
               for cell in cells for j in range(len(cell)) if cell[j] > 0)


def _ref_connected(cells, rank):
    offsets = [o for o in itertools.product((-1, 0, 1), repeat=rank) if any(o)]
    start = min(cells)
    seen, frontier = {start}, [start]
    while frontier:
        cell = frontier.pop()
        for off in offsets:
            nb = tuple(c + o for c, o in zip(cell, off))
            if nb in cells and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cells)


def _ref_boxes(cells, cuts):
    rows = {}
    for cell in sorted(cells):
        rows.setdefault(cell[:-1], []).append(cell[-1])
    boxes = []
    for prefix, ks in sorted(rows.items()):
        runs = [[ks[0], ks[0]]]
        for k in ks[1:]:
            if k == runs[-1][1] + 1:
                runs[-1][1] = k
            else:
                runs.append([k, k])
        for k0, k1 in runs:
            boxes.append((tuple(cuts[i] for i in prefix) + (cuts[k0],),
                          tuple(cuts[i + 1] for i in prefix) + (cuts[k1 + 1],)))
    return boxes


def _ref_contains(rank, boxes, rho):
    return any(all(lo[p] <= x < hi[p] for p, x in zip(perm, rho))
               for lo, hi in boxes for perm in itertools.permutations(range(rank)))


def _cuts(*box_lists):
    return sorted({0.0} | {v for boxes in box_lists for lo, hi in boxes for v in lo + hi})


@st.composite
def _unions(draw, rank):
    """Unions of boxes with bounds on a coarse lattice, so that boxes share
    faces, touch at corners, meet the hyperplanes and come out asymmetric."""
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        bounds = [sorted(draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=2,
                                       unique=True))) for _ in range(rank)]
        boxes.append((tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)))
    return boxes


@st.composite
def _cases(draw):
    rank = draw(st.sampled_from((2, 3)))
    probes = draw(st.lists(st.tuples(*[st.sampled_from(PROBES)] * rank), max_size=12))
    return rank, draw(_unions(rank)), draw(_unions(rank)), probes


# corners touching diagonally: connected only through the 3^r neighbourhood
@example((2, [((0.0, 0.0), (0.2, 0.2)), ((0.2, 0.2), (0.35, 0.35))],
          [((0.0, 0.0), (0.35, 0.35))], [(0.2, 0.2), (0.19, 0.2)]))
@example((3, [((0.2, 0.2, 0.2), (0.35, 0.35, 0.35)), ((0.5, 0.5, 0.5), (0.7, 0.7, 0.7))],
          [((0.0, 0.2, 0.5), (0.2, 0.35, 0.7))], [(0.2, 0.2, 0.2)]))
@example((3, [((0.0, 0.0, 0.0), (0.2, 0.2, 0.2)), ((0.2, 0.2, 0.2), (0.35, 0.35, 0.35))],
          [((0.0, 0.0, 0.0), (0.2, 0.35, 0.35))], [(0.2, 0.2, 0.2)]))
@settings(max_examples=150, deadline=None)
@given(_cases())
def test_mask_matches_set_of_cells_reference(case):
    rank, boxes, other_boxes, probes = case
    S = ReinhardtShadow(rank, boxes)
    cuts = _cuts(boxes)
    cells = _ref_cells(rank, boxes, cuts)
    assert S.cuts == tuple(cuts)
    assert S.boxes == _ref_boxes(cells, cuts)
    assert S.symmetrized == (cells != _input_cells(boxes, cuts))
    assert is_complete(S) == _ref_complete(cells)
    assert is_connected(S) == _ref_connected(cells, rank)
    for rho in probes:
        assert S.contains(rho) == _ref_contains(rank, boxes, rho)

    T = ReinhardtShadow(rank, other_boxes)
    union = _cuts(boxes, other_boxes)
    want_equal = _ref_cells(rank, boxes, union) == _ref_cells(rank, other_boxes, union)
    assert (S == T) == want_equal
    assert ReinhardtShadow(rank, S.boxes) == S


# log-convexity against a reference on unit cells: the union of covered unit
# cubes is convex iff, for every pair of covered cells a and b, every cell from
# floor((a + b) / 2) to ceil((a + b) / 2) is covered


def _ref_log_convex(cells):
    for a, b in itertools.product(cells, repeat=2):
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        ranges = [range(math.floor(m), math.ceil(m) + 1) for m in mid]
        if not all(c in cells for c in itertools.product(*ranges)):
            return False
    return True


@example((1, [((0.2,), (0.35,)), ((0.5,), (0.7,))]))
@example((2, [((0.2, 0.2), (0.5, 0.5))]))
@example((2, [((0.2, 0.2), (0.7, 0.35)), ((0.2, 0.5), (0.7, 0.7))]))
@example((3, [((0.2, 0.2, 0.2), (0.7, 0.7, 0.7))]))
@example((3, [((0.0, 0.0, 0.0), (0.5, 0.5, 0.2)), ((0.0, 0.0, 0.0), (0.2, 0.5, 0.5))]))
@settings(max_examples=200, deadline=None)
@given(st.sampled_from((1, 2, 3)).flatmap(lambda r: st.tuples(st.just(r), _unions(r))))
def test_log_convexity_matches_unit_cell_reference(case):
    rank, boxes = case
    S = ReinhardtShadow(rank, boxes)
    cells = _ref_cells(rank, boxes, _cuts(boxes))
    assert is_log_convex(S) == _ref_log_convex(cells)


def test_rank_ten_shadow_is_built_and_classified():
    # the closure ORs in 9 adjacent transposes until stable, not all 10! axis orders
    lo, hi = (0.1,) * 5 + (0.5,) * 5, (0.2,) * 5 + (0.6,) * 5
    S = ReinhardtShadow(10, [((0.0,) * 10, (0.2,) * 10), (lo, hi)])
    assert S.symmetrized
    assert S.contains([0.55, 0.15] * 5) and not S.contains([0.55] * 6 + [0.15] * 4)
    assert int(S.covered.sum()) == 2 ** 10 + math.comb(10, 5)
    result = classify_domain(SymmetricSpaceModel(rank=10), S)
    assert result.verdict == "not_stein"
    assert result.tests == {"complete": False, "connected": False,
                            "log_convex": False, "stein_shadow": False}


def test_cut_grid_over_the_cap_is_rejected_without_allocating(capsys, tmp_path):
    # diagonal squares whose bounds cut each axis into just over
    # sqrt(MAX_MASK_CELLS) cells
    pairs = (math.isqrt(MAX_MASK_CELLS) + 2) // 2
    d = 2 * pairs + 1
    boxes = [(((2 * k - 1) / d,) * 2, ((2 * k) / d,) * 2) for k in range(1, pairs + 1)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap"):
            ReinhardtShadow(2, boxes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MAX_MASK_CELLS // 8  # the mask alone would take MAX_MASK_CELLS bytes

    config = {"model": {"rank": 2, "kind": "tube"},
              "shadow": {"rank": 2, "boxes": [{"lo": list(lo), "hi": list(hi)}
                                              for lo, hi in boxes]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["stein-classify", "--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ConfigError" and "cap" in error["message"]
