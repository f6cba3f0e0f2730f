"""Plurisubharmonicity verdicts for invariant functions over a shadow.

On a shadow whose invariant domain passes the Stein classification, strict
plurisubharmonicity of an invariant function is equivalent to positive
definiteness of the chamber block alone; the medium/short coefficients are
then automatically positive.  On other shadows all blocks are checked
directly, except that strictness claims for non-tube models on non-complete
shadows are downgraded to Inconclusive (such domains are never Stein and the
equivalence breaks down there).

A shadow is seen only through its covered chamber cells.  The evaluation
grid, grid_n samples per axis per cell, has an exact size known before it is
built; it is evaluated in the chunks of ``levi.assemble_chunks``: one jet, one
block assembly and one ``np.linalg.eigvalsh`` per chunk.  Each reported
minimum's witness is the first grid point, in grid order, that attains it;
ties within rounding go to the earlier point.

All verdicts are certificates over the evaluation grid only, and the report
says so.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .funcspace import InvariantFunction, slice_value, to_slice
from .levi import LeviBlockForm, assemble_chunks
from .model import SpaceKind, SymmetricSpaceModel, json_float
from .reinhardt import ClassifyResult, ReinhardtShadow, chamber_cells, classify_domain


class Verdict(Enum):
    STRICTLY_PSH = "strictly_psh"
    PSH_NOT_STRICT = "psh_not_strict"
    NOT_PSH = "not_psh"
    INCONCLUSIVE = "inconclusive"


class GridSizeError(ValueError):
    """The evaluation grid needs more than MAX_GRID_JETS jet rows."""


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
    classification: ClassifyResult  # of the shadow, as the verdict used it

    @property
    def stein_shadow(self) -> bool:
        return self.classification.stein

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "min_a_block_eig": json_float(self.min_a_block_eig),
            "min_medium": json_float(self.min_medium),
            "min_short": json_float(self.min_short),
            "witness_point": [json_float(x) for x in self.witness_point],
            "grid_spec": self.grid_spec,
            "tolerance": json_float(self.tolerance),
            "stein_shadow": self.stein_shadow,
        }


def _cell_samples(cell: np.ndarray, grid_n: int) -> np.ndarray:
    """Sample-index rows of a cell k_1 >= ... >= k_r, positions in ascending cell
    order, non-decreasing within each run of equal cell indices, lexicographic."""
    table = np.empty((1, 0), dtype=np.intp)
    for p, c in enumerate(cell[::-1]):
        # each row is followed by every sample >= its last one in the same run
        low = table[:, -1] if p and c == cell[-p] else np.zeros(len(table), dtype=np.intp)
        counts = grid_n - low
        new = np.repeat(low - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        table = np.column_stack([np.repeat(table, counts, axis=0), new])
    return table


def chamber_grid(shadow: ReinhardtShadow, grid_n: int) -> np.ndarray:
    """``(N, r)`` chamber points a_1 >= ... >= a_r >= 0, grid_n samples per axis
    per covered cell, cell c of an axis at rho = cuts[c] + (cuts[c+1] - cuts[c]) k / grid_n.

    Per ``chamber_cells`` cell, the ascending sample-index tuples that are
    non-decreasing within each run of m equal cell indices, C(grid_n + m - 1, m)
    tuples per run in ``itertools.combinations_with_replacement`` order, their
    product across runs (lowest cells outermost), each reversed into a point.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    k, cuts = np.arange(grid_n), shadow.cuts
    axis = np.array([np.arctanh(lo + (hi - lo) * k / grid_n)
                     for lo, hi in zip(cuts[:-1], cuts[1:])])
    return np.concatenate([axis[cell[::-1], _cell_samples(cell, grid_n)][:, ::-1]
                           for cell in chamber_cells(shadow)])


# Cap on a grid's jet rows, its exact size times f.jet_rows, checked before it is built.
MAX_GRID_JETS = 1 << 20


def _block_minima(form: LeviBlockForm) -> tuple:
    """Least a-block eigenvalue, medium and short coefficient at each point
    (inf where the form has no medium or no short block)."""
    return (np.linalg.eigvalsh(form.a_block)[..., 0],
            np.min(form.medium, axis=-1, initial=math.inf),
            np.min(form.short, axis=-1, initial=math.inf))


def check_invariant_psh(model: SymmetricSpaceModel, f: InvariantFunction,
                        shadow: ReinhardtShadow, grid_n: int = 8,
                        tolerance: float = 1e-9,
                        short_coeff_factor: float = 2.0) -> CheckReport:
    """Grid verdict on (strict) plurisubharmonicity of f over the shadow.

    The grid is ``chamber_grid(shadow, grid_n)``, evaluated by
    ``levi.assemble_chunks``, which reports the first failing point in a
    GridEvaluationError.  Each minimum's witness is the first grid point (in
    ``chamber_grid`` order) attaining it.  A grid of more than MAX_GRID_JETS
    jet rows, counted exactly from the cells, raises GridSizeError unbuilt.
    """
    # a run of m equal cell indices takes C(grid_n + m - 1, m) sorted sample tuples
    points = sum(math.prod(math.comb(grid_n + m - 1, m) for m in Counter(cell.tolist()).values())
                 for cell in chamber_cells(shadow))
    if points * f.jet_rows > MAX_GRID_JETS:
        raise GridSizeError(
            f"{points} chamber points x {f.jet_rows} permutation(s) = "
            f"{points * f.jet_rows} jet rows, over the cap of {MAX_GRID_JETS}")
    grid = chamber_grid(shadow, grid_n)
    classification = classify_domain(model, shadow)

    minima = [_block_minima(form)
              for form in assemble_chunks(model, f, grid, short_coeff_factor)]
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
        classification=classification,
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


def _boundary_margin(shadow: ReinhardtShadow, rho: np.ndarray, reach: float) -> float:
    """l-infinity distance from rho to the uncovered cells and the outer faces
    rho_j = cuts[-1], not the coordinate hyperplanes: where an exhaustion blows
    up.  Uncovered cells farther than ``reach`` are not looked at."""
    cuts = np.asarray(shadow.cuts)
    # per axis, the distance from rho_j to each cell's closed interval
    gap = np.maximum(np.maximum(cuts[:-1] - rho[:, None], rho[:, None] - cuts[1:]), 0.0)
    near = [np.flatnonzero(g < reach) for g in gap]
    dist = np.zeros(())
    for j, cells in enumerate(near):
        dist = np.maximum(dist[..., None], gap[j, cells])
    uncovered = dist[~shadow.covered[np.ix_(*near)]]
    return min(float(np.min(cuts[-1] - rho)), float(np.min(uncovered, initial=math.inf)))


def locate_minimum(f: InvariantFunction, shadow: ReinhardtShadow,
                   grid_n: int = 16, position_tol: float = 1e-6) -> MinimumReport:
    """Numerical minimizer of the slice restriction over the shadow's chamber.

    Coarse chamber grid followed by coordinate descent with shrinking steps
    (derivative-free).  Raises BoundaryMinimumError when the minimizer presses
    against the shadow boundary, which violates the exhaustion hypothesis.
    """
    best_point, best_value = None, math.inf
    for H in chamber_grid(shadow, grid_n):
        v = slice_value(f, H)
        if v < best_value:
            best_value, best_point = v, H
    if not math.isfinite(best_value):
        raise ValueError("no finite function value on the search grid")

    x = np.array(best_point, dtype=float)
    step, evals = 0.25, 0
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
    threshold = float(np.max(np.diff(shadow.cuts)[chamber_cells(shadow)])) / (2.0 * grid_n)
    margin = _boundary_margin(shadow, rho, threshold)
    if margin < threshold:
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
