"""Permutation-invariant Reinhardt shadows in the unit polydisk.

A shadow is a finite union of half-open boxes in modulus space [0,1)^r,
closed under coordinate permutations.  The box bounds and 0 cut each axis
into cells, and ``ReinhardtShadow.covered`` is the boolean mask of covered
cells, of shape ``(len(cuts) - 1,) * rank``.  Box algebra is exact on it:
membership is a ``searchsorted`` lookup, completeness equality with the
downward closure, connectedness a flood fill joining cells along faces and
corners, equality a comparison on the union cuts, and the canonical boxes are
the runs along the last axis.  The mask is dense: a cut grid of more than
``MAX_MASK_CELLS`` cells is rejected with ValueError before allocation.

Logarithmic convexity is the one grid-approximate test, run on a fixed
lattice in log coordinates clipped below at s = -20.

Classification: a shadow that meets a coordinate hyperplane is the trace of a
Stein domain iff it is complete and log-convex; one that avoids the
hyperplanes iff it is log-convex.  The ambient invariant domain is then Stein
iff additionally the shadow is connected (tube type) or complete (non-tube
type).  ``envelope`` grows a shadow to the smallest grid-representable Stein
one by iterating log-convex hulls and, where required, downward closure, on a
log raster that shares the downward closure and the run merging of the mask.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .model import SpaceKind, SymmetricSpaceModel

LOG_CLIP = -20.0
_PAIR_CAP = 512
MAX_MASK_CELLS = 1 << 26


class EnvelopeResolutionError(RuntimeError):
    """Envelope grid too coarse for the input; retry with the suggested grid_n."""

    def __init__(self, message: str, suggested_grid_n: int):
        super().__init__(f"{message}; retry with grid_n={suggested_grid_n}")
        self.suggested_grid_n = suggested_grid_n


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


def _boxes_from_mask(mask: np.ndarray, lo_of: np.ndarray, hi_of: np.ndarray) -> list:
    """Disjoint boxes covering the mask: its maximal runs along the last axis, in
    lexicographic cell order.  Cell k spans [lo_of[k], hi_of[k]) on every axis."""
    pad = [(0, 0)] * (mask.ndim - 1) + [(1, 1)]
    edges = np.diff(np.pad(mask, pad).astype(np.int8), axis=-1)
    first = np.argwhere(edges == 1)
    last = first.copy()
    last[:, -1] = np.argwhere(edges == -1)[:, -1] - 1
    return [(tuple(lo), tuple(hi))
            for lo, hi in zip(lo_of[first].tolist(), hi_of[last].tolist())]


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
        covered_input = _covered_cells(raw, cuts, rank)
        covered = covered_input.copy()
        for perm in itertools.permutations(range(rank)):
            covered |= covered_input.transpose(perm)

        self.rank = rank
        self.cuts = tuple(cuts)
        self.covered = covered
        self.symmetrized = not np.array_equal(covered, covered_input)
        self.boxes = _boxes_from_mask(covered, np.array(cuts[:-1]), np.array(cuts[1:]))
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

    def down_closure(self) -> "ReinhardtShadow":
        return ReinhardtShadow(self.rank, [((0.0,) * self.rank, hi) for _, hi in self.boxes])

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "boxes": [{"lo": list(lo), "hi": list(hi)} for lo, hi in self.boxes],
        }

    @staticmethod
    def from_json(obj: dict) -> "ReinhardtShadow":
        boxes = [(tuple(b["lo"]), tuple(b["hi"])) for b in obj["boxes"]]
        return ReinhardtShadow(obj["rank"], boxes)

    # -- log-coordinate raster ----------------------------------------------

    def _log_boxes(self):
        out = []
        for lo, hi in self.boxes:
            slo = tuple(LOG_CLIP if l <= math.exp(LOG_CLIP) else max(LOG_CLIP, math.log(l))
                        for l in lo)
            shi = tuple(min(0.0, math.log(u)) for u in hi)
            if all(a < b for a, b in zip(slo, shi)):
                out.append((slo, shi))
        return out

    def _center_raster(self, grid_n: int) -> np.ndarray:
        """Boolean lattice over [LOG_CLIP, 0]^r: cell covered iff its center is in log S."""
        delta = -LOG_CLIP / grid_n
        raster = np.zeros((grid_n,) * self.rank, dtype=bool)
        for slo, shi in self._log_boxes():
            slices = []
            for j in range(self.rank):
                # centers LOG_CLIP + (k + 0.5) delta inside [slo_j, shi_j)
                k0 = max(0, math.ceil((slo[j] - LOG_CLIP) / delta - 0.5))
                k1 = min(grid_n, math.ceil((shi[j] - LOG_CLIP) / delta - 0.5))
                slices.append(slice(k0, k1))
            if all(s.start < s.stop for s in slices):
                raster[tuple(slices)] = True
        return raster


def is_complete(S: ReinhardtShadow) -> bool:
    """Downward closure in moduli: every covered cell has all lower cells covered."""
    if "complete" not in S._cache:
        S._cache["complete"] = np.array_equal(S.covered, _down_close_raster(S.covered))
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


def _log_convexity(S: ReinhardtShadow, grid_n: int):
    log_boxes = S._log_boxes()
    if not log_boxes:
        return True, None
    delta = -LOG_CLIP / grid_n
    raster = S._center_raster(grid_n)
    cells = np.argwhere(raster)
    raster_pts = LOG_CLIP + (cells + 0.5) * delta if cells.shape[0] else \
        np.empty((0, S.rank))
    if raster_pts.shape[0] > _PAIR_CAP:
        idx = np.unique(np.linspace(0, raster_pts.shape[0] - 1, _PAIR_CAP).astype(int))
        raster_pts = raster_pts[idx]
    box_pts = np.array(
        [[0.5 * (l + h) for l, h in zip(slo, shi)] for slo, shi in log_boxes]
    )
    points = np.unique(np.vstack([raster_pts, box_pts]), axis=0)
    if points.shape[0] <= 1:
        return True, None
    eps = 2.0 / grid_n
    mids = 0.5 * (points[:, None, :] + points[None, :, :])
    flat = mids.reshape(-1, S.rank)
    ok = np.zeros(flat.shape[0], dtype=bool)
    for slo, shi in log_boxes:
        lo = np.asarray(slo) - eps
        hi = np.asarray(shi) + eps
        ok |= np.all((flat >= lo) & (flat < hi), axis=1)
    if bool(np.all(ok)):
        return True, None
    bad = np.argwhere(~ok.reshape(mids.shape[:2]))[0]
    return False, (np.exp(points[bad[0]]), np.exp(points[bad[1]]))


def is_log_convex(S: ReinhardtShadow, grid_n: int = 64) -> bool:
    """Midpoint test in log coordinates: for sampled pairs in the log image,
    the midpoint must lie in the eps-fattened image, eps = 2/grid_n.

    Applies to S intersected with (0,1)^r; sample points are raster cell
    centers plus every box center, membership is exact against the fattened
    boxes, so the test is grid-relative only through the sampling.
    """
    key = ("logconvex", grid_n)
    if key not in S._cache:
        S._cache[key] = _log_convexity(S, grid_n)
    return S._cache[key][0]


def log_convexity_witness(S: ReinhardtShadow, grid_n: int = 64):
    """Witness pair of moduli whose log midpoint escapes the shadow, if any."""
    key = ("logconvex", grid_n)
    if key not in S._cache:
        S._cache[key] = _log_convexity(S, grid_n)
    return S._cache[key][1]


def is_stein(S: ReinhardtShadow, grid_n: int = 64) -> bool:
    """Steinness of the shadow itself (as a Reinhardt domain in the polydisk)."""
    if S.touches_hyperplanes():
        return is_complete(S) and is_log_convex(S, grid_n)
    return is_log_convex(S, grid_n)


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


def classify_domain(model: SymmetricSpaceModel, S: ReinhardtShadow,
                    grid_n: int = 64) -> ClassifyResult:
    """Stein classification of the invariant domain with the given shadow.

    Tube type needs a Stein, connected shadow; non-tube type needs a Stein,
    complete shadow.
    """
    if model.rank != S.rank:
        raise ValueError(f"model rank {model.rank} != shadow rank {S.rank}")
    tests = {
        "complete": is_complete(S),
        "connected": is_connected(S),
        "log_convex": is_log_convex(S, grid_n),
        "stein_shadow": is_stein(S, grid_n),
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


def _intersect_raster(S: ReinhardtShadow, grid_n: int) -> np.ndarray:
    """Covered iff the lattice cell intersects log S (conservative superset)."""
    delta = -LOG_CLIP / grid_n
    raster = np.zeros((grid_n,) * S.rank, dtype=bool)
    for slo, shi in S._log_boxes():
        slices = []
        for j in range(S.rank):
            k0 = max(0, math.floor((slo[j] - LOG_CLIP) / delta))
            k1 = min(grid_n, math.ceil((shi[j] - LOG_CLIP) / delta))
            slices.append(slice(k0, k1))
        if all(s.start < s.stop for s in slices):
            raster[tuple(slices)] = True
    return raster


def _down_close_raster(raster: np.ndarray) -> np.ndarray:
    out = raster
    for axis in range(raster.ndim):
        flipped = np.flip(out, axis)
        out = np.flip(np.logical_or.accumulate(flipped, axis=axis), axis)
    return out


def _hull_close_raster(raster: np.ndarray, grid_n: int) -> np.ndarray:
    r = raster.ndim
    if not raster.any():
        return raster
    if r == 1:
        cells = np.flatnonzero(raster)
        out = raster.copy()
        out[cells[0]:cells[-1] + 1] = True
        return out
    # corners of the covered cells, in lexicographic order: corner c is one
    # iff some cell c - o with o in {0,1}^r is covered
    corners = np.zeros((grid_n + 1,) * r, dtype=bool)
    for off in itertools.product((0, 1), repeat=r):
        corners[tuple(slice(o, o + grid_n) for o in off)] |= raster
    pts = np.argwhere(corners).astype(float)
    hull = ConvexHull(pts)
    centers_1d = np.arange(grid_n) + 0.5
    grids = np.meshgrid(*([centers_1d] * r), indexing="ij")
    centers = np.stack([g.reshape(-1) for g in grids], axis=1)
    inside = np.ones(centers.shape[0], dtype=bool)
    for eq in hull.equations:
        inside &= centers @ eq[:-1] + eq[-1] <= 1e-9
    return raster | inside.reshape(raster.shape)


def envelope(model: SymmetricSpaceModel, S: ReinhardtShadow,
             grid_n: int = 64) -> ReinhardtShadow:
    """Smallest grid-representable Stein shadow containing S (model-dependent).

    Already-Stein inputs are returned unchanged.  Otherwise the log raster of
    S is grown to a fixpoint of log-convex hulling plus, for non-tube models
    or hyperplane-touching inputs, downward closure.  Minimality is relative
    to the grid resolution; the log image is clipped below at s = -20.
    """
    if classify_domain(model, S, grid_n).stein:
        return S
    need_down = model.kind is SpaceKind.NON_TUBE or S.touches_hyperplanes()
    covered = _intersect_raster(S, grid_n)
    if not covered.any():
        raise EnvelopeResolutionError("shadow raster came out empty", 2 * grid_n)
    try:
        for _ in range(grid_n * S.rank + 2):
            prev = covered
            if need_down:
                covered = _down_close_raster(covered)
            covered = _hull_close_raster(covered, grid_n)
            if np.array_equal(covered, prev):
                break
        else:
            raise EnvelopeResolutionError("hull iteration did not stabilize", 2 * grid_n)
    except QhullError as exc:
        raise EnvelopeResolutionError(f"degenerate hull ({exc})", 2 * grid_n) from exc

    delta = -LOG_CLIP / grid_n
    bounds = [math.exp(LOG_CLIP + k * delta) for k in range(grid_n + 1)]
    lo_of = np.array([0.0 if need_down else bounds[0]] + bounds[1:-1])
    hi_of = np.array(bounds[1:-1] + [1.0])
    boxes = _boxes_from_mask(covered, lo_of, hi_of)
    result = ReinhardtShadow(S.rank, boxes)
    if not classify_domain(model, result, grid_n).stein:
        raise EnvelopeResolutionError("envelope failed the Stein test", 2 * grid_n)
    return result
