"""Block assembly of the invariant Hermitian form at slice points.

For a smooth invariant function with slice restriction f~, the form at a
chamber point a is block diagonal: an r x r block over the chamber directions
with entries d2f~/da_j da_l + delta_jl 2 coth(2 a_j) df~/da_j, one scalar
coefficient shared by the two medium-root blocks of each index pair j < l, and
(non-tube only) one scalar per short root.  Each formula degenerates on a
coordinate hyperplane or on the walls a_j = a_l; the analytic limit values are
used inside a small threshold and the event is recorded as a flag.

Everything here works on stacks: points ``(..., r)`` give one
``LeviBlockForm`` of arrays, the a-block ``(..., r, r)`` and the medium and
short coefficients as columns, a single point being the 0-d case.  Every
formula is evaluated on the whole stack, all index pairs at once, and the
limit branches are picked with ``np.where``.  ``assemble_chunks`` evaluates
long stacks in chunks sized by one float budget, for levi-eval, psh-check and
verify alike, and names the first point that fails.

The complex side: for a torus-invariant function of the moduli, the complex
Hessian in z-coordinates is assembled from the modulus-chart jet, and the two
computations are linked by a diagonal congruence with entries cosh^2(a_j)
e^{i theta_j}; ``congruence_check`` evaluates both sides independently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .funcspace import Chart, InvariantFunction, Jet2, NonFiniteJetError, to_slice
from .model import SpaceKind, SymmetricSpaceModel

DEGENERACY_EPS = 1e-6


@dataclass
class LeviBlockForm:
    """Assembled block data of the form at chamber-reduced points.

    ``point`` is ``(..., r)``, ``a_block`` ``(..., r, r)``, ``medium``
    ``(..., r(r-1)/2)``, the coefficient of both medium-root blocks of each
    pair j < l in ``np.triu_indices(r, 1)`` order, and ``short`` ``(..., r)``
    (``(..., 0)`` for tube models).  ``limits``, boolean ``(..., F)``, marks
    where the limit formula named in ``limit_names`` gave an entry.
    ``form[i]`` is the form at row i of a stack.
    """

    point: np.ndarray
    a_block: np.ndarray
    medium: np.ndarray
    short: np.ndarray
    limits: np.ndarray
    limit_names: tuple

    @property
    def flags(self) -> list:
        """The ``limit:*`` flags raised, point by point in row order."""
        hits = self.limits.reshape(-1, len(self.limit_names))
        return [self.limit_names[k] for k in np.nonzero(hits)[1]]

    def __getitem__(self, idx) -> "LeviBlockForm":
        return LeviBlockForm(point=self.point[idx], a_block=self.a_block[idx],
                             medium=self.medium[idx], short=self.short[idx],
                             limits=self.limits[idx], limit_names=self.limit_names)

    def to_json(self) -> dict:
        """Report of a single point's form (``assemble`` keeps its entries finite)."""
        pairs = itertools.combinations(range(1, len(self.point) + 1), 2)
        return {
            "point": self.point.tolist(),
            "a_block": self.a_block.reshape(-1).tolist(),
            "medium_coeff": [{"j": j, "l": l, "value": v}
                             for (j, l), v in zip(pairs, self.medium.tolist())],
            "short_coeff": [{"j": j, "value": v}
                            for j, v in enumerate(self.short.tolist(), start=1)],
            "flags": sorted(name for name, hit in zip(self.limit_names, self.limits)
                            if hit),
        }


# -- generic and limit formulas, exposed separately so the limit-continuity
# suite can evaluate the generic branch arbitrarily close to a hyperplane.
# Indices may be ints or index arrays; H and the jet may carry leading axes.


def a_diag_generic(jet: Jet2, H: np.ndarray, j):
    return jet.hess[..., j, j] + 2.0 / np.tanh(2.0 * H[..., j]) * jet.grad[..., j]


def a_diag_limit(jet: Jet2, j):
    return 2.0 * jet.hess[..., j, j]


def medium_generic(jet: Jet2, H: np.ndarray, j, l):
    g, aj, al = jet.grad, H[..., j], H[..., l]
    num = np.sinh(2.0 * aj) * g[..., j] - np.sinh(2.0 * al) * g[..., l]
    den = np.sinh(aj + al) * np.sinh(aj - al)
    return num / den


def medium_limit_equal(jet: Jet2, H: np.ndarray, j, l):
    """Closed form of the limit on the wall a_j = a_l = a > 0 (no numerical limiting)."""
    h = jet.hess
    a = 0.5 * (np.abs(H[..., j]) + np.abs(H[..., l]))
    return 2.0 / np.tanh(2.0 * a) * jet.grad[..., j] + 0.5 * (
        h[..., j, j] - 2.0 * h[..., j, l] + h[..., l, l]
    )


def medium_limit_origin(jet: Jet2, j):
    return 2.0 * jet.hess[..., j, j]


def short_generic(jet: Jet2, H: np.ndarray, j, factor: float = 2.0):
    return factor / np.tanh(H[..., j]) * jet.grad[..., j]


def short_limit(jet: Jet2, j, factor: float = 2.0):
    return factor * jet.hess[..., j, j]


# -- block operations on a jet ------------------------------------------------
# Both branches are evaluated everywhere, so the generic one divides by zero on
# the hyperplanes it is not selected on; errstate silences that and overflow
# far out on the slice, and ``assemble`` rejects any non-finite entry it keeps.


def a_block_from_jet(jet: Jet2, H: np.ndarray) -> tuple:
    """(r x r chamber blocks, where the diagonal limit at a_j = 0 was used)."""
    idx = np.arange(H.shape[-1])
    limit = np.abs(H) <= DEGENERACY_EPS
    M = np.array(np.broadcast_to(jet.hess, H.shape + H.shape[-1:]))
    with np.errstate(all="ignore"):
        M[..., idx, idx] = np.where(limit, a_diag_limit(jet, idx),
                                    a_diag_generic(jet, H, idx))
    return M, limit


def medium_coeff_from_jet(jet: Jet2, H: np.ndarray, j, l) -> tuple:
    """(medium coefficients, origin-limit mask, wall-limit mask) for pairs j < l."""
    aj, al = np.abs(H[..., j]), np.abs(H[..., l])
    origin = (aj <= DEGENERACY_EPS) & (al <= DEGENERACY_EPS)
    equal = ~origin & (np.abs(aj - al) <= DEGENERACY_EPS)
    with np.errstate(all="ignore"):
        value = np.where(origin, medium_limit_origin(jet, j),
                         np.where(equal, medium_limit_equal(jet, H, j, l),
                                  medium_generic(jet, H, j, l)))
    return value, origin, equal


def short_coeff_from_jet(jet: Jet2, H: np.ndarray, j, factor: float = 2.0) -> tuple:
    """(short coefficients, where the limit at a_j = 0 was used)."""
    limit = np.abs(H[..., j]) <= DEGENERACY_EPS
    with np.errstate(all="ignore"):
        value = np.where(limit, short_limit(jet, j, factor),
                         short_generic(jet, H, j, factor))
    return value, limit


def _limit_names(r: int, nontube: bool) -> tuple:
    """Names of the limit masks, in ``LeviBlockForm.limits`` order."""
    pairs = itertools.combinations(range(1, r + 1), 2)
    return (tuple(f"limit:a{j}" for j in range(1, r + 1))
            + tuple(f"limit:m{j},{l}:{kind}" for j, l in pairs
                    for kind in ("origin", "equal"))
            + tuple(f"limit:s{j}" for j in range(1, r + 1) if nontube))


def assemble(model: SymmetricSpaceModel, f: InvariantFunction, H: Sequence[float],
             short_coeff_factor: float = 2.0) -> LeviBlockForm:
    """Chamber-reduce the points H, ``(..., r)``, and compute every block there.

    Raises NonFiniteJetError if a block entry is not finite.
    """
    if f.rank != model.rank:
        raise ValueError(f"function rank {f.rank} != model rank {model.rank}")
    H = np.asarray(H, dtype=float)
    if H.shape[-1:] != (model.rank,):
        raise ValueError(f"point has shape {H.shape}, expected (..., {model.rank})")
    # contiguous: numpy takes a scalar path on a reversed single row, whose last
    # digits differ from its vector loops', so rows would depend on the chunking
    dominant = np.ascontiguousarray(np.sort(np.abs(H), axis=-1)[..., ::-1])
    jet = to_slice(f, dominant)
    M, a_limit = a_block_from_jet(jet, dominant)
    pairs = np.triu_indices(model.rank, 1)
    medium, origin, equal = medium_coeff_from_jet(jet, dominant, *pairs)
    # origin and equal masks interleaved pair by pair
    limits = [a_limit, np.stack([origin, equal], axis=-1).reshape(medium.shape[:-1] + (-1,))]
    nontube = model.kind is SpaceKind.NON_TUBE
    if nontube:
        short, s_limit = short_coeff_from_jet(jet, dominant, np.arange(model.rank),
                                              short_coeff_factor)
        limits.append(s_limit)
    else:
        short = np.empty(dominant.shape[:-1] + (0,))
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(medium))
            and np.all(np.isfinite(short))):
        raise NonFiniteJetError(f"non-finite block entry of {f.label or 'function'}")
    return LeviBlockForm(point=dominant, a_block=M, medium=medium, short=short,
                         limits=np.concatenate(limits, axis=-1),
                         limit_names=_limit_names(model.rank, nontube))


class GridEvaluationError(RuntimeError):
    """Evaluation failed at one point of a stack; carries the offending point."""

    def __init__(self, point, cause):
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"evaluation failed at point {self.point.tolist()}: {cause}")


# A chunk of rows holds rows * P * r^2 floats per Hessian, P = ``f.jet_rows``:
# chunks take CHUNK_FLOATS // (P r^2) rows, at least 1, whatever the number of
# points.
CHUNK_FLOATS = 1 << 20


def assemble_chunks(model: SymmetricSpaceModel, f: InvariantFunction, points: Sequence,
                    short_coeff_factor: float = 2.0) -> Iterator[LeviBlockForm]:
    """Yield the form of each consecutive chunk of the ``(N, r)`` points.

    If a chunk fails, its points are assembled one by one and the first
    failing one is reported in a GridEvaluationError.
    """
    points = np.asarray(points, dtype=float)
    rows = max(1, CHUNK_FLOATS // (f.jet_rows * model.rank ** 2))
    for start in range(0, len(points), rows):
        chunk = points[start:start + rows]
        try:
            form = assemble(model, f, chunk, short_coeff_factor)
        except Exception as exc:  # noqa: BLE001 - reported with the point
            for H in chunk:
                try:
                    assemble(model, f, H, short_coeff_factor)
                except Exception as row_exc:  # noqa: BLE001
                    raise GridEvaluationError(H, row_exc) from row_exc
            raise GridEvaluationError(chunk[0], exc) from exc
        yield form


# -- complex side -------------------------------------------------------------


def reinhardt_levi(f: InvariantFunction, z: Sequence[complex]) -> np.ndarray:
    """Complex Hessian (d^2 f / dzbar_j dz_l) of a modulus-chart function at z.

    One quarter of the polar-coordinate expression
    (1/rho_j) df/drho_j delta_jl + e^{i(theta_j - theta_l)} d^2 f/drho_j drho_l;
    off-diagonal entries vanish when z_j z_l = 0 and the diagonal extends
    through rho_j = 0 with value (1/2) d^2 f/drho_j^2.
    """
    if f.chart is not Chart.MODULUS:
        raise ValueError("complex Hessian requires a modulus-chart function")
    z = np.asarray(z, dtype=complex)
    if z.shape != (f.rank,):
        raise ValueError(f"point has shape {z.shape}, expected ({f.rank},)")
    rho = np.abs(z)
    theta = np.angle(z)
    jet = f(rho)
    r = f.rank
    L4 = np.zeros((r, r), dtype=complex)
    for j in range(r):
        if rho[j] > 0.0:
            diag = jet.grad[j] / rho[j] + jet.hess[j, j]
        else:
            diag = 2.0 * jet.hess[j, j]
        if not math.isfinite(diag):
            raise ArithmeticError(
                f"complex Hessian diagonal not finite at rho_{j + 1} = {rho[j]}"
            )
        L4[j, j] = diag
        for l in range(j + 1, r):
            if rho[j] > 0.0 and rho[l] > 0.0:
                val = np.exp(1j * (theta[j] - theta[l])) * jet.hess[j, l]
            else:
                val = 0.0
            L4[j, l] = val
            L4[l, j] = np.conj(val)
    return 0.25 * L4


@dataclass
class CongruenceReport:
    """Both sides of the diagonal-congruence identity and their worst mismatch."""

    point: np.ndarray
    discrepancy: float
    complex_side: np.ndarray
    slice_side: np.ndarray


def congruence_check(f: InvariantFunction, z: Sequence[complex]) -> CongruenceReport:
    """Compare 4 d^2f/dzbar dz against C (a-block) C* with c_jj = cosh^2(a_j) e^{i theta_j}.

    Both sides are computed independently (the left from the modulus-chart jet
    in z-coordinates, the right from the slice-chart block); the discrepancy is
    data, not an error.
    """
    z = np.asarray(z, dtype=complex)
    rho = np.abs(z)
    if np.any(rho >= 1.0):
        raise ValueError("points must lie in the open unit polydisk")
    H = np.arctanh(rho)
    M = a_block_from_jet(to_slice(f, H), H)[0]
    c = np.cosh(H) ** 2 * np.exp(1j * np.angle(z))
    right = np.outer(c, np.conj(c)) * M
    left = 4.0 * reinhardt_levi(f, z)
    discrepancy = float(np.max(np.abs(left - right)))
    return CongruenceReport(point=z, discrepancy=discrepancy,
                            complex_side=left, slice_side=right)
