"""The canonical invariant Kaehler potential and its slice derivatives.

The potential is built from the even profile rho_hat(t) = log((cosh t + 1)/2),
normalized so rho_hat(0) = 0, with rho_hat'(t) = tanh(t/2).  The profile
satisfies coth(t) rho_hat'(t) + rho_hat''(t) = 1, which is exactly what makes
the assembled block form of the potential a constant multiple of the identity
(the calibration used throughout the test suite).  In rank one with b = 8 the
potential equals -2 log(1 - |z|^2), the logarithm of the Bergman kernel of the
disc up to an additive constant.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .funcspace import Chart, InvariantFunction, Jet2, diag_matrix
from .model import SymmetricSpaceModel


def rho_hat(t):
    """log((cosh t + 1)/2), evaluated in overflow-safe form for any t (or array of t)."""
    a = np.abs(t)
    # (cosh t + 1)/2 = e^a (1 + e^-a)^2 / 4
    return a - 2.0 * math.log(2.0) + 2.0 * np.log1p(np.exp(-a))


def potential_value(model: SymmetricSpaceModel, H: Sequence[float]):
    """Value of the canonical potential at the slice points H, ``(..., r)``:
    (b/4) sum_j rho_hat(2 a_j)."""
    H = np.asarray(H, dtype=float)
    return 0.25 * model.killing_b * np.sum(rho_hat(2.0 * H), axis=-1)


def moment_coefficient(model: SymmetricSpaceModel, H: Sequence[float], j: int) -> float:
    """Moment pairing against the j-th compact direction at the slice point.

    Closed form -(b/2) sinh(2 a_j) rho_hat'(2 a_j) = -b sinh^2(a_j); always
    nonpositive, vanishing exactly on the hyperplane a_j = 0.
    """
    H = np.asarray(H, dtype=float)
    if not 0 <= j < H.shape[0]:
        raise IndexError(f"index {j} out of range for rank {H.shape[0]}")
    return -model.killing_b * math.sinh(H[j]) ** 2


def killing_potential_invariant(model: SymmetricSpaceModel) -> InvariantFunction:
    """The potential as a slice-chart invariant function with closed-form jets."""
    b = model.killing_b

    def eval_jet(H: np.ndarray) -> Jet2:
        grad = 0.5 * b * np.tanh(H)
        hess = diag_matrix(0.5 * b / np.cosh(H) ** 2)
        return Jet2(potential_value(model, H), grad, hess, _symmetrize=False)

    return InvariantFunction(rank=model.rank, chart=Chart.SLICE, eval_jet=eval_jet,
                             label="killing_potential")


def killing_potential_modulus(model: SymmetricSpaceModel) -> InvariantFunction:
    """The same potential in the modulus chart: -(b/4) sum log(1 - rho_j^2).

    Needed wherever complex-coordinate derivatives are taken (the modulus
    chart is the only one adjacent to the z-coordinates).
    """
    b = model.killing_b
    r = model.rank

    def eval_jet(rho: np.ndarray) -> Jet2:
        if np.any(np.abs(rho) >= 1.0):
            raise ValueError(f"moduli must lie in (-1, 1), got {rho}")
        one_minus = 1.0 - rho * rho
        value = -0.25 * b * np.sum(np.log(one_minus), axis=-1)
        grad = 0.5 * b * rho / one_minus
        hess = diag_matrix(0.5 * b * (1.0 + rho * rho) / one_minus**2)
        return Jet2(value, grad, hess, _symmetrize=False)

    return InvariantFunction(rank=r, chart=Chart.MODULUS, eval_jet=eval_jet,
                             label="killing_potential")


def bergman_identify(model: SymmetricSpaceModel, samples: Sequence[float]) -> tuple:
    """Fit the constant offset between the rank-one potential and -2 log(1 - rho^2).

    Returns (constant, max deviation) for the Chebyshev-optimal constant.  The
    identification holds exactly (deviation at rounding level) iff b = 8; other
    values of b leave a non-constant difference, which the deviation exposes.
    """
    if model.rank != 1:
        raise ValueError(f"Bergman identification is rank-one only, got rank {model.rank}")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample list")
    if np.any(samples <= 0.0) or np.any(samples >= 1.0):
        raise ValueError("samples must lie strictly inside (0, 1)")
    # the scalar math functions keep the reported constant to the last bit
    slice_points = np.array([[math.atanh(rho)] for rho in samples])
    log_kernel = np.array([-2.0 * math.log1p(-rho * rho) for rho in samples])
    diffs = potential_value(model, slice_points) - log_kernel
    constant = 0.5 * (float(diffs.max()) + float(diffs.min()))
    deviation = 0.5 * (float(diffs.max()) - float(diffs.min()))
    return constant, deviation
