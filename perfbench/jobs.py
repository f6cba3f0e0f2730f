"""Seeded job generators for the three workloads.

A workload is a fixed cycle ("pass") of job slots.  Job (seed, pass, slot) is
drawn from its own random stream, so every job of a run has its own
coefficients, points and jittered bounds, and the runner can regenerate any
job's expectation without trusting the worker.  Each job carries what its
construction implies about the answer; ``oracles`` checks reports against it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("psh_sweep", "stein_geometry", "levi_points")
WARMUP_PASS = 1_000_000

# Passes a run makes at least.  Timings are each slot's best over the passes
# of a run; psh_sweep's heavy slots spread more at four passes than at five.
MIN_PASSES = {"psh_sweep": 5, "stein_geometry": 4, "levi_points": 4}

E1, E2 = math.exp(-1.0), math.exp(-2.0)


@dataclass
class Job:
    command: str
    config: dict
    expect: dict
    label: str


def _rng(seed: int, pass_idx: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_idx, slot, 0x1912])


def _model(rank: int, kind: str, b: float = 8.0) -> dict:
    out = {"rank": rank, "kind": kind, "killing_b": b}
    if kind == "nontube":
        out["mult_short"] = 2
    return out


def _cube(lo: float, hi: float, r: int) -> dict:
    return {"lo": [lo] * r, "hi": [hi] * r}


def _box(lo, hi) -> dict:
    return {"lo": list(lo), "hi": list(hi)}


# -- invariant functions ------------------------------------------------------
#
# Class 0: builtin potential, slice chart.  Class 1: builtin potential,
# modulus chart.  Classes 2 and 3: the modulus-chart potential for b = 8,
# -2*log(1-t_j) summed over j (written as one log of the product), plus eps
# times a seeded polynomial that is symmetric (class 2) or not (class 3, the
# r!-permutation path).  Small eps keeps every block positive, so the verdict
# is known by construction.

FUNCTION_CLASSES = ("killing_slice", "killing_modulus", "sym_expr", "nonsym_expr")


def _coef(rng) -> float:
    return float(np.round(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]), 6))


def _sym_terms(rng, r: int) -> list:
    """Power sums p1, p2 and the elementary e2, expanded into monomials."""
    c1, c2, c3 = _coef(rng), _coef(rng), _coef(rng)
    terms = []
    for j in range(r):
        terms.append((c1, tuple(1 if k == j else 0 for k in range(r))))
        terms.append((c2, tuple(2 if k == j else 0 for k in range(r))))
    for j, l in itertools.combinations(range(r), 2):
        terms.append((c3, tuple(1 if k in (j, l) else 0 for k in range(r))))
    return terms


def _nonsym_terms(rng, r: int) -> list:
    """t1^2 carries weight and t2^2 none, so no permutation fixes the sum."""
    def mono(**powers):
        return tuple(powers.get(f"t{k + 1}", 0) for k in range(r))

    return [(_coef(rng), mono(t1=2)), (_coef(rng), mono(t2=1))]


def _render(terms: list) -> str:
    parts = []
    for coef, powers in terms:
        factors = [f"t{k + 1}" if p == 1 else f"t{k + 1}^{p}"
                   for k, p in enumerate(powers) if p]
        parts.append(f"({coef:.6f})*" + "*".join(factors))
    return " + ".join(parts)


def _function(rng, r: int, fclass: int) -> tuple:
    """(function config, expectation spec) for one of FUNCTION_CLASSES."""
    if fclass == 0:
        return {"builtin": "killing_potential", "chart": "slice"}, {"type": "killing"}
    if fclass == 1:
        return {"builtin": "killing_potential", "chart": "modulus"}, {"type": "killing"}
    terms = _sym_terms(rng, r) if fclass == 2 else _nonsym_terms(rng, r)
    eps = float(np.round(rng.uniform(0.02, 0.08), 6))
    killing = "*".join(f"(1-t{j + 1})" for j in range(r))
    expr = f"-2*log({killing}) + {eps:.6f}*({_render(terms)})"
    spec = {"type": "expr", "eps": eps, "terms": terms, "symmetric": fclass == 2}
    return {"expr": expr, "chart": "modulus"}, spec


# -- psh_sweep ----------------------------------------------------------------

def _psh_slots() -> list:
    slots = []
    for r in (2, 3):
        for shadow in ("annulus", "ball"):
            for fclass in range(4):
                slots.append((r, shadow, 16, fclass))
    for fclass in range(4):
        slots.append((4, "annulus", 8, fclass))
    slots.append((4, "annulus", 16, 0))
    return slots


PSH_SLOTS = _psh_slots()


def psh_job(seed: int, pass_idx: int, slot: int) -> Job:
    r, shadow, grid_n, fclass = PSH_SLOTS[slot]
    rng = _rng(seed, pass_idx, slot)
    # annuli alternate tube/non-tube by class and balls the other way round,
    # so every class runs on both kinds; non-tube annuli take the all-blocks path
    tube = (fclass % 2 == 0) == (shadow == "annulus")
    if r == 4 and grid_n == 16:
        tube = True
    kind = "tube" if tube else "nontube"
    function, fspec = _function(rng, r, fclass)
    b = float(np.round(rng.uniform(4.0, 12.0), 6)) if fspec["type"] == "killing" else 8.0
    if shadow == "annulus":
        lo = float(E2 * rng.uniform(0.95, 1.05))
        hi = float(E1 * rng.uniform(0.95, 1.05))
    else:
        lo, hi = 0.0, float(rng.uniform(0.85, 0.95))
    # balls are Stein for both kinds; an annulus is not complete, so it is
    # Stein for tube type only and non-tube verdicts there are inconclusive
    stein = tube or shadow == "ball"
    verdict = "strictly_psh" if stein else "inconclusive"
    config = {
        "model": _model(r, kind, b),
        "function": function,
        "shadow": {"rank": r, "boxes": [_cube(lo, hi, r)]},
        "grid_n": grid_n,
    }
    expect = {"kind": "psh", "verdict": verdict, "stein": stein, "b": b,
              "function": fspec, "grid_points": math.comb(grid_n + r - 1, r)}
    label = f"psh r{r} {shadow} n{grid_n} {FUNCTION_CLASSES[fclass]} {kind}"
    return Job("psh-check", config, expect, label)


# -- stein_geometry -----------------------------------------------------------

def _j(rng, x: float, d: float) -> float:
    return float(x + rng.uniform(-d, d))


# the six rank-2 classification fixtures of the verify suite
FIXTURES = ("full", "annulus", "two_annuli", "l_shape", "staircase", "asym_pair")


def _stein_slots() -> list:
    slots = []
    for name in FIXTURES:
        for kind in ("tube", "nontube"):
            slots.append(("stein-classify", 2, name, kind, None))
            slots.append(("envelope", 2, name, kind, None))
    slots += [
        ("stein-classify", 3, "full", "nontube", None),
        ("stein-classify", 3, "annulus", "tube", None),
        ("stein-classify", 3, "two_annuli", "tube", None),
        ("envelope", 3, "two_annuli", "tube", None),
        # grid_n 8 only: this envelope takes minutes at the default grid_n 64
        ("envelope", 3, "annulus", "nontube", 8),
        ("stein-classify", 4, "near_full", "tube", None),
        ("stein-classify", 4, "annulus", "tube", None),
        ("stein-classify", 2, "hole", "tube", None),
    ]
    return slots


STEIN_SLOTS = _stein_slots()


def _shape(name: str, r: int, rng) -> tuple:
    """(boxes, stein by kind) of a shape with jittered bounds.

    The jitter stays small enough that every shape keeps its true class.
    """
    never = {"tube": False, "nontube": False}
    if name in ("full", "near_full"):
        h = float(rng.uniform(0.97 if name == "full" else 0.95, 1.0))
        return [_cube(0.0, h, r)], {"tube": True, "nontube": True}
    if name == "annulus":
        lo, hi = float(E2 * rng.uniform(0.95, 1.05)), float(E1 * rng.uniform(0.95, 1.05))
        return [_cube(lo, hi, r)], {"tube": True, "nontube": False}
    if name == "two_annuli":
        return ([_cube(_j(rng, 0.1, 0.01), _j(rng, 0.2, 0.01), r),
                 _cube(_j(rng, 0.5, 0.01), _j(rng, 0.6, 0.01), r)], never)
    if name == "l_shape":
        c, h = _j(rng, 0.5, 0.03), float(rng.uniform(0.97, 1.0))
        return [_box((c, 0.0), (h, h)), _box((0.0, c), (c, h))], never
    if name == "staircase":
        long_, short = _j(rng, 0.9, 0.03), _j(rng, 0.1, 0.01)
        return [_box((0.0, 0.0), (long_, short)), _box((0.0, 0.0), (short, long_))], never
    if name == "asym_pair":
        return [_box((_j(rng, 0.1, 0.01), _j(rng, 0.5, 0.01)),
                     (_j(rng, 0.2, 0.01), _j(rng, 0.6, 0.01)))], never
    if name == "hole":
        # [0.3,0.8)^2 minus the hole [0.5,0.55)^2; only the outer bounds are
        # jittered, the hole itself is kept exact
        lo, hi = _j(rng, 0.3, 0.01), _j(rng, 0.8, 0.01)
        return [_box((lo, lo), (hi, 0.5)), _box((lo, 0.55), (hi, hi)),
                _box((lo, 0.5), (0.5, 0.55)), _box((0.55, 0.5), (hi, 0.55))], never
    raise KeyError(name)


def stein_job(seed: int, pass_idx: int, slot: int) -> Job:
    command, r, name, kind, grid_n = STEIN_SLOTS[slot]
    rng = _rng(seed, pass_idx, slot)
    boxes, stein_by_kind = _shape(name, r, rng)
    config = {"model": _model(r, kind), "shadow": {"rank": r, "boxes": boxes}}
    if grid_n is not None:
        config["grid_n"] = grid_n
    expect = {"kind": command, "stein": stein_by_kind[kind],
              "known_defect": name == "hole"}
    label = f"{command} r{r} {name} {kind}" + (f" n{grid_n}" if grid_n else "")
    return Job(command, config, expect, label)


# -- levi_points --------------------------------------------------------------

LEVI_SLOTS = [("levi-eval", r, fclass) for r in (2, 3, 4) for fclass in range(4)]
LEVI_SLOTS += [("potential-eval", r, None) for r in (1, 2, 3, 4)]

N_POINTS = 32
_SEP = 0.05  # generic coordinates keep this distance from 0 and from each other


def _generic(rng, r: int) -> np.ndarray:
    while True:
        a = rng.uniform(0.0, 2.5, size=r)
        gaps = np.abs(a[:, None] - a[None, :]) + np.eye(r)
        if a.min() > _SEP and gaps.min() > _SEP:
            return a * rng.choice([-1.0, 1.0], size=r)


def levi_points(rng, r: int) -> list:
    """32 signed, unsorted points: a quarter on a coordinate hyperplane, a
    quarter on a wall a_j = +-a_l, two at the origin, the rest generic."""
    points = []
    for k in range(N_POINTS):
        a = _generic(rng, r)
        if k < 8:
            a[int(rng.integers(r))] = 0.0
        elif k < 16:
            j, l = rng.choice(r, size=2, replace=False)
            a[l] = a[j] * rng.choice([-1.0, 1.0])
        elif k < 18:
            a[:] = 0.0
        points.append([float(x) for x in a])
    order = rng.permutation(N_POINTS)
    return [points[i] for i in order]


def levi_job(seed: int, pass_idx: int, slot: int) -> Job:
    command, r, fclass = LEVI_SLOTS[slot]
    rng = _rng(seed, pass_idx, slot)
    if command == "potential-eval":
        b = 8.0 if r == 1 else float(np.round(rng.uniform(4.0, 12.0), 6))
        config = {"model": _model(r, "tube", b),
                  "points": [[float(x) for x in rng.uniform(-3.0, 3.0, size=r)]
                             for _ in range(N_POINTS)]}
        if r == 1:
            config["bergman_samples"] = [float(x) for x in rng.uniform(0.01, 0.99, size=16)]
        return Job(command, config, {"kind": "potential", "b": b},
                   f"potential-eval r{r}")
    kind = "nontube" if (r + fclass) % 2 else "tube"
    function, fspec = _function(rng, r, fclass)
    b = float(np.round(rng.uniform(4.0, 12.0), 6)) if fspec["type"] == "killing" else 8.0
    config = {"model": _model(r, kind, b), "function": function,
              "points": levi_points(rng, r)}
    expect = {"kind": "levi", "b": b, "function": fspec, "nontube": kind == "nontube"}
    return Job(command, config, expect, f"levi-eval r{r} {FUNCTION_CLASSES[fclass]} {kind}")


# -----------------------------------------------------------------------------

_MAKERS = {"psh_sweep": (psh_job, PSH_SLOTS), "stein_geometry": (stein_job, STEIN_SLOTS),
           "levi_points": (levi_job, LEVI_SLOTS)}

# (slot, config change) of each workload's warm-up job
_WARMUP = {
    "psh_sweep": (0, lambda cfg: dict(cfg, grid_n=8)),
    "stein_geometry": (2, None),
    "levi_points": (len(LEVI_SLOTS) - 3, None),
}


def pass_size(workload: str) -> int:
    return len(_MAKERS[workload][1])


def make_job(workload: str, seed: int, pass_idx: int, slot: int) -> Job:
    return _MAKERS[workload][0](seed, pass_idx, slot)


def warmup_job(workload: str, seed: int) -> Job:
    """One small job of the workload's own kind, never part of a timed pass."""
    slot, shrink = _WARMUP[workload]
    job = make_job(workload, seed, WARMUP_PASS, slot)
    if shrink is not None:
        job.config = shrink(job.config)
    return job
