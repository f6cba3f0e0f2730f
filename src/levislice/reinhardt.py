"""Permutation-invariant Reinhardt shadows in the unit polydisk.

A shadow is a finite union of half-open boxes in modulus space [0,1)^r,
closed under coordinate permutations.  The box bounds and 0 cut each axis
into cells, and ``ReinhardtShadow.covered`` is the boolean mask of covered
cells, of shape ``(len(cuts) - 1,) * rank``.  Box algebra is exact on it:
membership is a ``searchsorted`` lookup, completeness equality with the
downward closure, connectedness a flood fill joining cells along faces and
corners, equality a comparison on the union cuts, and the canonical boxes are
the runs along the last axis; psh-check reads its ``chamber_cells``.  The
mask is dense: a cut grid of more than ``MAX_MASK_CELLS`` cells is rejected
with ValueError before allocation.

Logarithmic convexity is exact on the mask too.  The log map is increasing in
each coordinate, so the log image of S in (0,1)^r is the union of the log
images of the covered cells, boxes that are unbounded below where a cell
reaches a hyperplane.  The closure of a finite union of axis-parallel boxes
is bounded by axis-parallel hyperplanes only, so if it is convex it is a box;
a convex set has the interior of its closure, so that box is filled.  Hence S
is log-convex iff it covers every cell of its bounding box, which for a
permutation-closed mask is a cube [k0, k1)^r of cell indices.

Classification: a shadow that meets a coordinate hyperplane is the trace of a
Stein domain iff it is complete and log-convex; one that avoids the
hyperplanes iff it is log-convex.  The ambient invariant domain is then Stein
iff additionally the shadow is connected (tube type) or complete (non-tube
type).  By the box argument the only Stein shadows are cubes, so ``envelope``
returns the bounding cube [cuts[k0], cuts[k1])^r for tube models and its
downward closure [0, cuts[k1])^r for non-tube models: every Stein shadow
containing S contains that cube, and the cube is Stein.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import SpaceKind, SymmetricSpaceModel

MAX_MASK_CELLS = 1 << 26


def _covered_cells(boxes, cuts, r: int) -> np.ndarray:
    """Mask of the cut grid's cells that lie inside some box (cuts contain all box bounds)."""
    n = len(cuts) - 1
    if n ** r > MAX_MASK_CELLS:
        raise ValueError(f"shadow has {n}^{r} cut cells, over the cap of {MAX_MASK_CELLS}")
    cuts = np.asarray(cuts)
    mask = np.zeros((n,) * r, dtype=bool)
    for lo, hi in boxes:
        k0, k1 = np.searchsorted(cuts, lo), np.searchsorted(cuts, hi)
        mask[tuple(map(slice, k0, k1))] = True
    return mask


def _boxes_from_mask(mask: np.ndarray, cuts: Sequence[float]) -> list:
    """Disjoint boxes covering the mask: its maximal runs along the last axis, in
    lexicographic cell order.  Cell k spans [cuts[k], cuts[k + 1]) on every axis."""
    pad = [(0, 0)] * (mask.ndim - 1) + [(1, 1)]
    edges = np.diff(np.pad(mask, pad).astype(np.int8), axis=-1)
    first = np.argwhere(edges == 1)
    last = first.copy()
    last[:, -1] = np.argwhere(edges == -1)[:, -1] - 1
    cuts = np.asarray(cuts)
    return [(tuple(lo), tuple(hi))
            for lo, hi in zip(cuts[first].tolist(), cuts[last + 1].tolist())]


class ReinhardtShadow:
    """Union of half-open boxes prod_j [lo_j, hi_j) in [0,1)^r, permutation-closed."""

    def __init__(self, rank: int, boxes: Sequence):
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if not boxes:
            raise ValueError("shadow needs at least one box")
        raw = []
        for lo, hi in boxes:
            lo = tuple(float(x) for x in lo)
            hi = tuple(float(x) for x in hi)
            if len(lo) != rank or len(hi) != rank:
                raise ValueError(f"box dimensions must match rank {rank}")
            for l, u in zip(lo, hi):
                if not (0.0 <= l < u <= 1.0):
                    raise ValueError(f"box bounds must satisfy 0 <= lo < hi <= 1, got [{l}, {u})")
            raw.append((lo, hi))

        cuts = sorted({0.0} | {v for lo, hi in raw for v in lo + hi})
        covered_input = covered = _covered_cells(raw, cuts, rank)
        # adjacent transpositions generate the symmetric group: OR their
        # transposes in until the mask stops growing
        while True:
            grown = covered
            for i in range(rank - 1):
                grown = grown | np.swapaxes(grown, i, i + 1)
            if np.array_equal(grown, covered):
                break
            covered = grown

        self.rank = rank
        self.cuts = tuple(cuts)
        self.covered = covered
        self.symmetrized = not np.array_equal(covered, covered_input)
        self.boxes = _boxes_from_mask(covered, cuts)
        self._cache: dict = {}

    def __repr__(self):
        return f"ReinhardtShadow(rank={self.rank}, boxes={len(self.boxes)})"

    def __eq__(self, other):
        if not isinstance(other, ReinhardtShadow) or self.rank != other.rank:
            return NotImplemented
        cuts = sorted(set(self.cuts) | set(other.cuts))
        return np.array_equal(_covered_cells(self.boxes, cuts, self.rank),
                              _covered_cells(other.boxes, cuts, other.rank))

    def contains(self, rho: Sequence[float]) -> bool:
        k = np.searchsorted(self.cuts, np.asarray(rho, dtype=float), side="right") - 1
        return bool(np.all((k >= 0) & (k < self.covered.shape[0]))
                    and self.covered[tuple(k)])

    def touches_hyperplanes(self) -> bool:
        # permutation-closed, so a cell on any hyperplane has an image on the first
        return bool(self.covered[0].any())

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in self.boxes],
        }

    @staticmethod
    def from_json(obj: dict) -> "ReinhardtShadow":
        boxes = [(tuple(b["lo"]), tuple(b["hi"])) for b in obj["boxes"]]
        return ReinhardtShadow(obj["rank"], boxes)


def _down_close(mask: np.ndarray) -> np.ndarray:
    out = mask
    for axis in range(mask.ndim):
        flipped = np.flip(out, axis)
        out = np.flip(np.logical_or.accumulate(flipped, axis=axis), axis)
    return out


def is_complete(S: ReinhardtShadow) -> bool:
    """Downward closure in moduli: every covered cell has all lower cells covered."""
    if "complete" not in S._cache:
        S._cache["complete"] = np.array_equal(S.covered, _down_close(S.covered))
    return S._cache["complete"]


def _dilate(mask: np.ndarray) -> np.ndarray:
    """Cells within one step of the mask along every axis at once (3^r neighbourhood)."""
    out = mask
    for axis in range(mask.ndim):
        lower = (slice(None),) * axis + (slice(None, -1),)
        upper = (slice(None),) * axis + (slice(1, None),)
        grown = out.copy()
        grown[lower] |= out[upper]
        grown[upper] |= out[lower]
        out = grown
    return out


def is_connected(S: ReinhardtShadow) -> bool:
    """Connectivity of the closure: cells touching along faces or corners are adjacent."""
    if "connected" not in S._cache:
        covered = S.covered
        seen = np.zeros_like(covered)
        seen.flat[np.argmax(covered)] = True
        grown = _dilate(seen) & covered
        while not np.array_equal(grown, seen):
            seen, grown = grown, _dilate(grown) & covered
        S._cache["connected"] = np.array_equal(seen, covered)
    return S._cache["connected"]


def chamber_cells(S: ReinhardtShadow) -> np.ndarray:
    """The covered cells k_1 >= ... >= k_r, one per permutation orbit (the
    chamber is a strict fundamental domain), as a lexicographic ``(M, r)``
    index array; the mask is cut to the chamber before its cells are listed."""
    if "chamber_cells" not in S._cache:
        k = np.arange(S.covered.shape[0])
        chamber = S.covered
        for i in range(S.rank - 1):
            chamber = chamber & (k.reshape((-1,) + (1,) * (S.rank - 1 - i))
                                 >= k.reshape((-1,) + (1,) * (S.rank - 2 - i)))
        S._cache["chamber_cells"] = np.argwhere(chamber)
    return S._cache["chamber_cells"]


def _bounding_cube(S: ReinhardtShadow) -> tuple:
    """Cell indices [k0, k1) of the mask's bounding box, a cube since the mask
    is permutation-closed."""
    rows = np.flatnonzero(S.covered.any(axis=tuple(range(1, S.rank))))
    return int(rows[0]), int(rows[-1]) + 1


def is_log_convex(S: ReinhardtShadow) -> bool:
    """Log image of S in (0,1)^r convex: S covers every cell of its bounding cube."""
    k0, k1 = _bounding_cube(S)
    return bool(S.covered[(slice(k0, k1),) * S.rank].all())


def is_stein(S: ReinhardtShadow) -> bool:
    """Steinness of the shadow itself (as a Reinhardt domain in the polydisk)."""
    if S.touches_hyperplanes():
        return is_complete(S) and is_log_convex(S)
    return is_log_convex(S)


@dataclass
class ClassifyResult:
    stein: bool
    reasons: list
    tests: dict

    @property
    def verdict(self) -> str:
        return "stein" if self.stein else "not_stein"

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "reasons": self.reasons, "tests": self.tests}


def classify_domain(model: SymmetricSpaceModel, S: ReinhardtShadow) -> ClassifyResult:
    """Stein classification of the invariant domain with the given shadow.

    Tube type needs a Stein, connected shadow; non-tube type needs a Stein,
    complete shadow.
    """
    if model.rank != S.rank:
        raise ValueError(f"model rank {model.rank} != shadow rank {S.rank}")
    tests = {
        "complete": is_complete(S),
        "connected": is_connected(S),
        "log_convex": is_log_convex(S),
        "stein_shadow": is_stein(S),
    }
    reasons = []
    if not tests["stein_shadow"]:
        if S.touches_hyperplanes() and not tests["complete"]:
            reasons.append("shadow touches hyperplanes but is not complete")
        if not tests["log_convex"]:
            reasons.append("shadow is not logarithmically convex")
    if model.kind is SpaceKind.TUBE:
        if not tests["connected"]:
            reasons.append("shadow is not connected")
        stein = tests["stein_shadow"] and tests["connected"]
    else:
        if not tests["complete"]:
            reasons.append("shadow is not complete")
        stein = tests["stein_shadow"] and tests["complete"]
    return ClassifyResult(stein=stein, reasons=reasons, tests=tests)


def envelope(model: SymmetricSpaceModel, S: ReinhardtShadow) -> ReinhardtShadow:
    """Smallest Stein shadow containing S (model-dependent).

    Stein inputs are returned unchanged.  Otherwise the result is the bounding
    cube of S, grown down to 0 for non-tube models, which need completeness;
    for tube models its lower corner is already 0 when S meets a hyperplane.
    """
    if classify_domain(model, S).stein:
        return S
    k0, k1 = _bounding_cube(S)
    lo = S.cuts[k0] if model.kind is SpaceKind.TUBE else 0.0
    return ReinhardtShadow(S.rank, [((lo,) * S.rank, (S.cuts[k1],) * S.rank)])
