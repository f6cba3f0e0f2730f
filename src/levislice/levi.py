"""Block assembly of the invariant Hermitian form at slice points.

For a smooth invariant function with slice restriction f~, the form at a
chamber point a is block diagonal: an r x r block over the chamber directions
with entries d2f~/da_j da_l + delta_jl 2 coth(2 a_j) df~/da_j, one scalar
coefficient shared by the two medium-root blocks of each index pair j < l, and
(non-tube only) one scalar per short root.  Each formula degenerates on a
coordinate hyperplane or on the walls a_j = a_l; the analytic limit values are
used inside a small threshold and the event is recorded as a flag.

Everything here works on stacks: points of shape ``(..., r)`` give blocks of
shape ``(..., r, r)`` and coefficients of shape ``(...)``, a single point
being the 0-d case.  Every formula is evaluated on the whole stack and the
limit branches are picked with ``np.where``.

The complex side: for a torus-invariant function of the moduli, the complex
Hessian in z-coordinates is assembled from the modulus-chart jet, and the two
computations are linked by a diagonal congruence with entries cosh^2(a_j)
e^{i theta_j}; ``congruence_check`` evaluates both sides independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .funcspace import Chart, InvariantFunction, Jet2, NonFiniteJetError, to_slice
from .model import SpaceKind, SymmetricSpaceModel

DEGENERACY_EPS = 1e-6


@dataclass
class LeviBlockForm:
    """Assembled block data of the form at chamber-reduced points.

    ``point`` has shape ``(..., r)`` and ``a_block`` ``(..., r, r)``.
    ``medium`` maps 0-based index pairs (j, l) with j < l to the shared
    coefficient of both medium-root blocks; ``short`` maps 0-based indices to
    the short-root coefficient (empty for tube models); ``limits`` maps each
    ``limit:*`` flag to where a hyperplane-limit formula produced an entry.
    Coefficients and limit masks have the leading shape ``(...)``;
    ``form[i]`` is the form at row i of a stack.
    """

    point: np.ndarray
    a_block: np.ndarray
    medium: dict
    short: dict
    limits: dict

    @property
    def flags(self) -> list:
        """The ``limit:*`` flags raised, point by point in row order."""
        names = list(self.limits)
        hits = np.stack(list(self.limits.values()), axis=-1).reshape(-1, len(names))
        return [names[k] for k in np.nonzero(hits)[1]]

    def __getitem__(self, idx) -> "LeviBlockForm":
        return LeviBlockForm(
            point=self.point[idx],
            a_block=self.a_block[idx],
            medium={k: v[idx] for k, v in self.medium.items()},
            short={k: v[idx] for k, v in self.short.items()},
            limits={k: v[idx] for k, v in self.limits.items()},
        )

    def min_medium(self):
        """Least medium coefficient of each point (inf without medium blocks)."""
        return _row_min(self.medium, self.point.shape[:-1])

    def min_short(self):
        """Least short coefficient of each point (inf without short blocks)."""
        return _row_min(self.short, self.point.shape[:-1])

    def to_json(self) -> dict:
        """Report of a single point's form."""
        return {
            "point": [float(x) for x in self.point],
            "a_block": [float(x) for x in self.a_block.reshape(-1)],
            "medium_coeff": [
                {"j": j + 1, "l": l + 1, "value": float(v)}
                for (j, l), v in sorted(self.medium.items())
            ],
            "short_coeff": [
                {"j": j + 1, "value": float(v)} for j, v in sorted(self.short.items())
            ],
            "flags": sorted(self.flags),
        }


def _row_min(coeffs: dict, shape: tuple):
    if not coeffs:
        return np.full(shape, math.inf)
    return np.min(np.stack(list(coeffs.values()), axis=-1), axis=-1)


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


# -- public block operations ------------------------------------------------


def a_block(f: InvariantFunction, H: Sequence[float]) -> np.ndarray:
    """The r x r chamber block at each point H, with the diagonal limit at a_j = 0.

    Well defined entrywise at any H, in H's own coordinate order.
    """
    H = np.asarray(H, dtype=float)
    return a_block_from_jet(to_slice(f, H), H)[0]


def medium_coeff(f: InvariantFunction, H: Sequence[float], j: int, l: int) -> np.ndarray:
    """Shared coefficient of the medium-root blocks for the pair j < l, at each point H.

    Expects a chamber-reduced H.  On the wall a_j = a_l the closed limit form
    is used (avoiding the cancellation of the generic quotient); at
    a_j = a_l = 0 the value is twice the diagonal Hessian entry.
    """
    H = np.asarray(H, dtype=float)
    if j == l:
        raise ValueError(f"medium coefficient needs distinct indices, got j = l = {j}")
    if j > l:
        j, l = l, j
    return medium_coeff_from_jet(to_slice(f, H), H, j, l)[0]


def short_coeff(f: InvariantFunction, H: Sequence[float], j: int,
                model: Optional[SymmetricSpaceModel] = None,
                factor: float = 2.0) -> np.ndarray:
    """Short-root coefficient at index j, at each point H; only meaningful for
    non-tube models."""
    if model is not None and model.kind is SpaceKind.TUBE:
        raise ValueError("short-root coefficient requested on a tube-type model")
    H = np.asarray(H, dtype=float)
    return short_coeff_from_jet(to_slice(f, H), H, j, factor)[0]


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
    dominant = np.sort(np.abs(H), axis=-1)[..., ::-1]
    jet = to_slice(f, dominant)
    M, a_limit = a_block_from_jet(jet, dominant)
    limits = {f"limit:a{j + 1}": a_limit[..., j] for j in range(model.rank)}
    medium = {}
    for j in range(model.rank):
        for l in range(j + 1, model.rank):
            medium[(j, l)], origin, equal = medium_coeff_from_jet(jet, dominant, j, l)
            limits[f"limit:m{j + 1},{l + 1}:origin"] = origin
            limits[f"limit:m{j + 1},{l + 1}:equal"] = equal
    short = {}
    if model.kind is SpaceKind.NON_TUBE:
        for j in range(model.rank):
            short[j], limits[f"limit:s{j + 1}"] = short_coeff_from_jet(
                jet, dominant, j, short_coeff_factor)
    if not (np.all(np.isfinite(M)) and all(np.all(np.isfinite(v))
                                           for v in (*medium.values(), *short.values()))):
        raise NonFiniteJetError(f"non-finite block entry of {f.label or 'function'}")
    return LeviBlockForm(point=dominant, a_block=M, medium=medium, short=short,
                         limits=limits)


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

    def to_json(self) -> dict:
        return {
            "point": [[float(z.real), float(z.imag)] for z in self.point],
            "discrepancy": float(self.discrepancy),
        }


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
    M = a_block(f, H)
    c = np.cosh(H) ** 2 * np.exp(1j * np.angle(z))
    right = np.outer(c, np.conj(c)) * M
    left = 4.0 * reinhardt_levi(f, z)
    discrepancy = float(np.max(np.abs(left - right)))
    return CongruenceReport(point=z, discrepancy=discrepancy,
                            complex_side=left, slice_side=right)
