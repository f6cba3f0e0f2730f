"""Symmetric-space model data: rank, root system type and multiplicities.

A rank-r model of tube type has positive restricted roots 2e_j (j = 1..r,
each one-dimensional) and e_k ± e_l (k < l, shared multiplicity); a non-tube
model additionally carries the short roots e_j (even multiplicity).  The Weyl
group acts on slice coordinates by signed permutations, so every invariant
function is determined by its values on the closed chamber
a_1 >= ... >= a_r >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional


def json_float(x) -> Optional[float]:
    """``x`` as a plain float for a JSON report, or None where it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


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
