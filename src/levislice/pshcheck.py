"""Plurisubharmonicity verdicts for invariant functions over a shadow.

On a shadow whose invariant domain passes the Stein classification, strict
plurisubharmonicity of an invariant function is equivalent to positive
definiteness of the chamber block alone; the medium/short coefficients are
then automatically positive.  On other shadows all blocks are checked
directly, except that strictness claims for non-tube models on non-complete
shadows are downgraded to Inconclusive (such domains are never Stein and the
equivalence breaks down there).

The evaluation grid is an ``(N, r)`` array of chamber points, evaluated as
stacks: one jet, one block assembly and one ``np.linalg.eigvalsh`` per chunk
of points.  Each reported minimum's witness is the first grid point, in grid
order, that attains it; ties within rounding go to the earlier point.

All verdicts are certificates over the evaluation grid only, and the report
says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .funcspace import InvariantFunction, slice_value, to_slice
from .levi import assemble
from .model import SpaceKind, SymmetricSpaceModel
from .reinhardt import ReinhardtShadow, classify_domain


class Verdict(Enum):
    STRICTLY_PSH = "strictly_psh"
    PSH_NOT_STRICT = "psh_not_strict"
    NOT_PSH = "not_psh"
    INCONCLUSIVE = "inconclusive"


class GridEvaluationError(RuntimeError):
    """Evaluation failed at a grid point; carries the offending point."""

    def __init__(self, point, cause):
        super().__init__(f"evaluation failed at grid point {list(point)}: {cause}")
        self.point = np.asarray(point, dtype=float)


class BoundaryMinimumError(RuntimeError):
    """Minimizer ran into the shadow boundary: not an exhaustion."""


@dataclass
class CheckReport:
    verdict: Verdict
    min_a_block_eig: float
    min_medium: float
    min_short: float  # NaN for tube models
    witness_point: np.ndarray
    grid_spec: str
    tolerance: float
    stein_shadow: bool

    def to_json(self) -> dict:
        def num(x):
            x = float(x)
            return x if math.isfinite(x) else None

        return {
            "verdict": self.verdict.value,
            "min_a_block_eig": float(self.min_a_block_eig),
            "min_medium": num(self.min_medium),
            "min_short": num(self.min_short),
            "witness_point": [float(x) for x in self.witness_point],
            "grid_spec": self.grid_spec,
            "tolerance": float(self.tolerance),
            "stein_shadow": self.stein_shadow,
        }


def chamber_grid(shadow: ReinhardtShadow, grid_n: int) -> np.ndarray:
    """Chamber-reduced slice points covering the shadow, grid_n samples/axis/box.

    Returns an ``(N, r)`` array of distinct points a_1 >= ... >= a_r >= 0 in
    the order a walk over each box's index product (boxes in order,
    lexicographic indices) first meets them.  The points of a box are built
    one axis at a time as sorted partial tuples, keeping the first of equal
    ones, so memory grows with the distinct points, not with grid_n^r.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    k = np.arange(grid_n)
    per_box = []
    for lo, hi in shadow.boxes:
        points = np.empty((1, 0))
        for j in range(shadow.rank):
            axis = np.arctanh(lo[j] + (hi[j] - lo[j]) * k / grid_n)
            # every partial tuple, in walk order, extended by every axis value
            grown = np.concatenate([np.repeat(points, grid_n, axis=0),
                                    np.tile(axis, len(points))[:, None]], axis=1)
            points = -np.sort(-grown, axis=1)
            points = _first_unique(points, points)
        per_box.append(points)
    points = np.concatenate(per_box)
    return _first_unique(points, np.round(points, 12))


def _first_unique(rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The rows whose key row equals no earlier one, in order."""
    order = np.lexsort(keys.T)  # stable: equal keys stay in row order
    ranked = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return rows[np.sort(order[first])]


# Rows evaluated per batch: bounds the jet arrays, (CHUNK_ROWS * r! * r^2)
# floats for a symmetrized expression, independently of the grid size.
CHUNK_ROWS = 1024


def _block_minima(model: SymmetricSpaceModel, f: InvariantFunction, H: np.ndarray,
                  short_coeff_factor: float) -> tuple:
    """Least a-block eigenvalue, medium and short coefficient at each point."""
    form = assemble(model, f, H, short_coeff_factor=short_coeff_factor)
    return (np.linalg.eigvalsh(form.a_block)[..., 0], form.min_medium(),
            form.min_short())


def check_invariant_psh(model: SymmetricSpaceModel, f: InvariantFunction,
                        shadow: ReinhardtShadow, grid_n: int = 8,
                        tolerance: float = 1e-9,
                        short_coeff_factor: float = 2.0) -> CheckReport:
    """Grid verdict on (strict) plurisubharmonicity of f over the shadow.

    The grid is evaluated in chunks of CHUNK_ROWS points.  Each minimum's
    witness is the first grid point (in ``chamber_grid`` order) attaining it.
    If a chunk fails, its points are evaluated one by one and the first
    failing one is reported in a GridEvaluationError.
    """
    grid = chamber_grid(shadow, grid_n)
    if not len(grid):
        raise ValueError("empty evaluation grid")
    classification = classify_domain(model, shadow)

    minima = []
    for start in range(0, len(grid), CHUNK_ROWS):
        chunk = grid[start:start + CHUNK_ROWS]
        try:
            minima.append(_block_minima(model, f, chunk, short_coeff_factor))
        except Exception as exc:  # noqa: BLE001 - reported with the point
            for H in chunk:
                try:
                    _block_minima(model, f, H, short_coeff_factor)
                except Exception as row_exc:  # noqa: BLE001
                    raise GridEvaluationError(H, row_exc) from row_exc
            raise GridEvaluationError(chunk[0], exc) from exc
    eigs, mediums, shorts = (np.concatenate(m) for m in zip(*minima))

    def least(values):
        i = int(np.argmin(values))
        return float(values[i]), grid[i]

    tube = model.kind is SpaceKind.TUBE
    min_eig, min_eig_at = least(eigs)
    candidates = [(min_eig, min_eig_at)]
    min_medium = min_short = math.inf
    if model.rank > 1:
        min_medium, at = least(mediums)
        candidates.append((min_medium, at))
    if not tube:
        min_short, at = least(shorts)
        candidates.append((min_short, at))
    if classification.stein:
        basis, witness = min_eig, min_eig_at
    else:
        basis, witness = min(candidates, key=lambda c: c[0])

    if basis < -tolerance:
        verdict = Verdict.NOT_PSH
    elif not classification.stein and not tube and not classification.tests["complete"]:
        # strictness on a non-complete non-tube shadow is obstructed, not certified
        verdict = Verdict.INCONCLUSIVE
    elif basis > tolerance:
        verdict = Verdict.STRICTLY_PSH
    else:
        verdict = Verdict.PSH_NOT_STRICT

    return CheckReport(
        verdict=verdict,
        min_a_block_eig=min_eig,
        min_medium=min_medium,
        min_short=math.nan if tube else min_short,
        witness_point=witness,
        grid_spec=f"chamber grid, {grid_n} samples/axis, {len(grid)} points "
                  f"(certificate over the grid only)",
        tolerance=tolerance,
        stein_shadow=classification.stein,
    )


# -- rank-two convexity diagnostics -----------------------------------------


def convess_G(f: InvariantFunction, rs: Sequence[float], a: Sequence[float]) -> float:
    """Weighted difference quotient (r sinh(2a_1) f~_1 - s sinh(2a_2) f~_2) / (sinh^2 a_1 - sinh^2 a_2)."""
    if f.rank != 2:
        raise ValueError("diagnostic is defined for rank-two functions only")
    r_w, s_w = rs
    a = np.asarray(a, dtype=float)
    den = math.sinh(a[0]) ** 2 - math.sinh(a[1]) ** 2
    if abs(den) < 1e-12 * (1.0 + math.sinh(a[0]) ** 2 + math.sinh(a[1]) ** 2):
        raise ValueError(f"degenerate denominator at a = {a.tolist()}")
    jet = to_slice(f, a)
    num = r_w * math.sinh(2.0 * a[0]) * jet.grad[0] - s_w * math.sinh(2.0 * a[1]) * jet.grad[1]
    return num / den


@dataclass
class ConvessReport:
    monotone_pass: bool
    symmetry_pass: bool
    wall_pass: bool
    min_positive_slope: float
    max_symmetry_defect: float
    max_wall_slope: float

    @property
    def all_pass(self) -> bool:
        return self.monotone_pass and self.symmetry_pass and self.wall_pass

    def to_json(self) -> dict:
        return {
            "monotone_pass": self.monotone_pass,
            "symmetry_pass": self.symmetry_pass,
            "wall_pass": self.wall_pass,
            "min_positive_slope": float(self.min_positive_slope),
            "max_symmetry_defect": float(self.max_symmetry_defect),
            "max_wall_slope": float(self.max_wall_slope),
        }


def convess_properties(f: InvariantFunction, amax: float = 1.5, n: int = 9,
                       tol: float = 1e-10) -> ConvessReport:
    """Grid check of the first-derivative sign pattern and swap symmetry.

    Callers are expected to have verified strict plurisubharmonicity first;
    failures here are report entries, not exceptions.
    """
    if f.rank != 2:
        raise ValueError("diagnostic is defined for rank-two functions only")
    pos = np.linspace(amax / n, amax, n)
    anywhere = np.linspace(0.0, amax, n)
    a1, a2 = (x.ravel() for x in np.meshgrid(pos, anywhere, indexing="ij"))
    jet = to_slice(f, np.stack([a1, a2], axis=-1))
    neg = to_slice(f, np.stack([-a1, a2], axis=-1))
    swapped = to_slice(f, np.stack([a2, a1], axis=-1))
    wall = to_slice(f, np.stack([np.zeros(n), anywhere], axis=-1))
    min_slope = float(min(np.min(jet.grad[:, 0]), np.min(-neg.grad[:, 0])))
    max_defect = float(np.max(np.abs(jet.grad[:, 1] - swapped.grad[:, 0])))
    max_wall = float(np.max(np.abs(wall.grad[:, 0])))

    return ConvessReport(
        monotone_pass=min_slope > 0.0,
        symmetry_pass=max_defect <= tol,
        wall_pass=max_wall <= tol,
        min_positive_slope=min_slope,
        max_symmetry_defect=max_defect,
        max_wall_slope=max_wall,
    )


# -- minimum location ---------------------------------------------------------


@dataclass
class MinimumReport:
    point: np.ndarray
    value: float
    at_origin: bool
    on_diagonal: bool
    diagnostic: str

    def to_json(self) -> dict:
        return {
            "point": [float(x) for x in self.point],
            "value": float(self.value),
            "at_origin": self.at_origin,
            "on_diagonal": self.on_diagonal,
            "diagnostic": self.diagnostic,
        }


def _boundary_margin(shadow: ReinhardtShadow, rho: np.ndarray) -> float:
    """Distance from rho to the exhaustion-relevant boundary of its box.

    Outer faces always count; inner faces count only when they sit off the
    coordinate hyperplanes (an exhaustion blows up there too).
    """
    best = math.inf
    for lo, hi in shadow.boxes:
        if not all(l <= x < u for l, x, u in zip(lo, rho, hi)):
            continue
        margin = math.inf
        for l, x, u in zip(lo, rho, hi):
            margin = min(margin, u - x)
            if l > 0.0:
                margin = min(margin, x - l)
        best = min(best, margin)
    return best


def locate_minimum(f: InvariantFunction, shadow: ReinhardtShadow,
                   grid_n: int = 16, position_tol: float = 1e-6) -> MinimumReport:
    """Numerical minimizer of the slice restriction over the shadow's chamber.

    Coarse chamber grid followed by coordinate descent with shrinking steps
    (derivative-free).  Raises BoundaryMinimumError when the minimizer presses
    against the shadow boundary, which violates the exhaustion hypothesis.
    """
    grid = chamber_grid(shadow, grid_n)
    if not len(grid):
        raise ValueError("empty search grid")

    best_point = None
    best_value = math.inf
    for H in grid:
        v = slice_value(f, H)
        if v < best_value:
            best_value, best_point = v, H
    if best_point is None or not math.isfinite(best_value):
        raise ValueError("no finite function value on the search grid")

    x = np.array(best_point, dtype=float)
    step = 0.25
    evals = 0
    while step > 1e-9 and evals < 200000:
        improved = False
        for j in range(shadow.rank):
            for direction in (1.0, -1.0):
                trial = x.copy()
                trial[j] = abs(trial[j] + direction * step)
                if not shadow.contains(np.tanh(trial)):
                    continue
                v = slice_value(f, trial)
                evals += 1
                if v < best_value - 1e-15 * (1.0 + abs(best_value)):
                    best_value = v
                    x = trial
                    improved = True
        if not improved:
            step *= 0.5

    x = np.sort(np.abs(x))[::-1]  # report in chamber-canonical order
    rho = np.tanh(x)
    margin = _boundary_margin(shadow, rho)
    widths = [max(u - l for l, u in zip(lo, hi)) for lo, hi in shadow.boxes]
    if margin < max(widths) / (2.0 * grid_n):
        raise BoundaryMinimumError(
            f"minimizer {x.tolist()} sits on the shadow boundary "
            f"(margin {margin:.3e}); the function does not exhaust the domain"
        )

    at_origin = bool(np.max(np.abs(x)) < position_tol)
    on_diagonal = bool(np.max(x) - np.min(x) < position_tol)
    if at_origin:
        diagnostic = "minimum at the origin"
    elif on_diagonal:
        diagnostic = "minimum on the diagonal a_1 = ... = a_r"
    else:
        diagnostic = "minimum at a generic chamber point"
    return MinimumReport(point=x, value=best_value, at_origin=at_origin,
                         on_diagonal=on_diagonal, diagnostic=diagnostic)
