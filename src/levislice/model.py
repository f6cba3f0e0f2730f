"""Symmetric-space model data: rank, root system type, multiplicities, Weyl group.

A rank-r model of tube type has positive restricted roots 2e_j (j = 1..r,
each one-dimensional) and e_k ± e_l (k < l, shared multiplicity); a non-tube
model additionally carries the short roots e_j (even multiplicity).  The Weyl
group acts on slice coordinates by signed permutations, so every invariant
function is determined by its values on the closed chamber
a_1 >= ... >= a_r >= 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

MAX_ORBIT_RANK = 8


class SpaceKind(Enum):
    TUBE = "tube"
    NON_TUBE = "nontube"


@dataclass(frozen=True)
class SymmetricSpaceModel:
    """Numerical data of an irreducible non-compact Hermitian symmetric space.

    Multiplicities are user-supplied: every positivity statement in this
    package is multiplicity-independent, so they only enter dimension
    bookkeeping.  ``killing_b`` is the common Killing-form norm of the
    orthogonal chamber basis vectors; the default 8 matches the rank-one
    su(1,1) normalization.
    """

    rank: int
    kind: SpaceKind = SpaceKind.TUBE
    mult_medium: int = 2
    mult_short: int = 0
    killing_b: float = 8.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.killing_b <= 0:
            raise ValueError(f"killing_b must be positive, got {self.killing_b}")
        if self.rank >= 2 and self.mult_medium < 1:
            raise ValueError("mult_medium must be a positive integer for rank >= 2")
        if self.kind is SpaceKind.TUBE:
            if self.mult_short not in (0,):
                raise ValueError("tube type carries no short roots; mult_short must be 0")
        else:
            if self.mult_short < 1:
                raise ValueError("non-tube type requires mult_short >= 1")
            if self.mult_short % 2 != 0:
                raise ValueError("mult_short must be even (short root spaces pair up)")

    @staticmethod
    def from_json(obj: dict) -> "SymmetricSpaceModel":
        kind = SpaceKind(obj.get("kind", "tube"))
        default_short = 2 if kind is SpaceKind.NON_TUBE else 0
        return SymmetricSpaceModel(
            rank=obj["rank"],
            kind=kind,
            mult_medium=obj.get("mult_medium", 2),
            mult_short=obj.get("mult_short", default_short),
            killing_b=obj.get("killing_b", 8.0),
        )

    def to_json(self) -> dict:
        out = {
            "rank": self.rank,
            "kind": self.kind.value,
            "mult_medium": self.mult_medium,
            "killing_b": self.killing_b,
        }
        if self.kind is SpaceKind.NON_TUBE:
            out["mult_short"] = self.mult_short
        return out


@dataclass(frozen=True)
class SignedPermutation:
    """Signed permutation acting on R^r by (w.H)_i = signs[i] * H[perm[i]]."""

    perm: tuple
    signs: tuple

    def __post_init__(self):
        r = len(self.perm)
        if sorted(self.perm) != list(range(r)):
            raise ValueError(f"perm is not a permutation of 0..{r - 1}: {self.perm}")
        if len(self.signs) != r or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be a tuple of +1/-1 of matching length")

    @staticmethod
    def identity(r: int) -> "SignedPermutation":
        return SignedPermutation(tuple(range(r)), (1,) * r)

    def apply(self, H: Sequence[float]) -> np.ndarray:
        H = np.asarray(H, dtype=float)
        return np.array([self.signs[i] * H[self.perm[i]] for i in range(len(self.perm))])

    def compose(self, other: "SignedPermutation") -> "SignedPermutation":
        """Return the composition self o other (first apply other)."""
        r = len(self.perm)
        perm = tuple(other.perm[self.perm[i]] for i in range(r))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(r))
        return SignedPermutation(perm, signs)

    def inverse(self) -> "SignedPermutation":
        r = len(self.perm)
        inv = [0] * r
        signs = [1] * r
        for i in range(r):
            inv[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPermutation(tuple(inv), tuple(signs))

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm))) and all(s == 1 for s in self.signs)


@dataclass(frozen=True)
class RootLabel:
    """Symbolic positive-root label: family in {"2e", "e+e", "e-e", "e"} plus 1-based indices."""

    family: str
    indices: tuple

    def __str__(self):
        if self.family == "2e":
            return f"2e{self.indices[0]}"
        if self.family == "e":
            return f"e{self.indices[0]}"
        j, l = self.indices
        return f"e{j}{'+' if self.family == 'e+e' else '-'}e{l}"


def positive_roots(model: SymmetricSpaceModel) -> list:
    """List the positive restricted roots of the model with their multiplicities.

    Returns (RootLabel, multiplicity) pairs: long roots 2e_j with multiplicity
    one, medium roots e_k +/- e_l with the shared medium multiplicity, and for
    non-tube models the short roots e_j.
    """
    roots = [(RootLabel("2e", (j,)), 1) for j in range(1, model.rank + 1)]
    for k in range(1, model.rank + 1):
        for l in range(k + 1, model.rank + 1):
            roots.append((RootLabel("e+e", (k, l)), model.mult_medium))
            roots.append((RootLabel("e-e", (k, l)), model.mult_medium))
    if model.kind is SpaceKind.NON_TUBE:
        for j in range(1, model.rank + 1):
            roots.append((RootLabel("e", (j,)), model.mult_short))
    return roots


def weyl_reduce(H: Sequence[float]) -> tuple:
    """Canonicalize H into the closed chamber a_1 >= ... >= a_r >= 0.

    Returns (H_dominant, w) with H_dominant = w.apply(H); w.inverse() recovers
    the input point.  Ties are broken stably so the output is deterministic.
    """
    H = np.asarray(H, dtype=float)
    r = H.shape[0]
    order = sorted(range(r), key=lambda i: (-abs(H[i]), i))
    perm = tuple(order)
    signs = tuple(1 if H[i] >= 0 else -1 for i in order)
    w = SignedPermutation(perm, signs)
    return w.apply(H), w


def weyl_orbit(H: Sequence[float]) -> list:
    """All distinct images of H under signed permutations (rank-capped)."""
    H = np.asarray(H, dtype=float)
    r = H.shape[0]
    if r > MAX_ORBIT_RANK:
        raise ValueError(f"rank {r} exceeds orbit cap {MAX_ORBIT_RANK}")
    seen = set()
    out = []
    for perm in itertools.permutations(range(r)):
        base = H[list(perm)]
        for signs in itertools.product((1.0, -1.0), repeat=r):
            img = base * np.array(signs)
            key = tuple(np.round(img, 15))
            if key not in seen:
                seen.add(key)
                out.append(img)
    return out
