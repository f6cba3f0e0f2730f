"""Output oracles: what each job's construction implies about its report.

None of these checks goes through the timed code path.  Block values come
from closed forms (the Killing calibration: every block entry equals b) or
from the block formulas applied to a finite-difference jet
(``funcspace.fd_jet``) of a plain-float evaluation of the expression.
Verdicts come from how the input was built.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import jsonschema
import numpy as np

from levislice.cli import REPORT_SCHEMAS
from levislice.funcspace import fd_jet

LIMIT_EPS = 1e-6  # the documented threshold of the hyperplane-limit branches
KILLING_TOL = 1e-9
FD_STEP = 1e-3
FD_TOL = 1e-4  # relative to 1 + |value|; the finite-difference error is ~1e-6


_VALIDATORS = {command: jsonschema.validators.validator_for(schema)(schema)
               for command, schema in REPORT_SCHEMAS.items()}


def check(job, rc, out) -> str | None:
    """Reason the job failed, or None when its report is right."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        report = json.loads(out)
        _VALIDATORS[job.command].validate(report)
    except (ValueError, jsonschema.ValidationError) as exc:
        return f"invalid report: {str(exc).splitlines()[0]}"
    return _CHECKS[job.expect["kind"]](job, report)


# -- block oracles --------------------------------------------------------------

def slice_function(spec: dict, r: int):
    """Plain-float slice restriction of an expression job's function,
    averaged over all coordinate permutations."""
    perms = list(itertools.permutations(range(r)))
    # term (c, powers) evaluated at t[perm] is c * prod_k t[perm[k]]^powers[k]
    coefs = np.array([c for _ in perms for c, _ in spec["terms"]])
    exps = np.zeros((coefs.size, r))
    row = 0
    for perm in perms:
        for _, powers in spec["terms"]:
            for k, p in enumerate(powers):
                exps[row, perm[k]] = p
            row += 1
    scale = spec["eps"] / len(perms)

    def f(a):
        t = np.tanh(np.asarray(a, dtype=float)) ** 2
        return float(-2.0 * np.sum(np.log(1.0 - t))
                     + scale * coefs @ np.prod(t ** exps, axis=1))

    return f


def expected_flags(a, nontube: bool) -> list:
    r = len(a)
    flags = [f"limit:a{j + 1}" for j in range(r) if a[j] <= LIMIT_EPS]
    for j, l in itertools.combinations(range(r), 2):
        if a[j] <= LIMIT_EPS and a[l] <= LIMIT_EPS:
            flags.append(f"limit:m{j + 1},{l + 1}:origin")
        elif abs(a[j] - a[l]) <= LIMIT_EPS:
            flags.append(f"limit:m{j + 1},{l + 1}:equal")
    if nontube:
        flags += [f"limit:s{j + 1}" for j in range(r) if a[j] <= LIMIT_EPS]
    return sorted(flags)


def fd_blocks(f, a, nontube: bool) -> dict:
    """a-block, medium and short coefficients from a finite-difference jet."""
    r = len(a)
    jet = fd_jet(f, a, h=FD_STEP)
    g, h = jet.grad, jet.hess
    block = h.copy()
    for j in range(r):
        block[j, j] = 2.0 * h[j, j] if a[j] <= LIMIT_EPS else \
            h[j, j] + 2.0 / math.tanh(2.0 * a[j]) * g[j]
    medium = {}
    for j, l in itertools.combinations(range(r), 2):
        if a[j] <= LIMIT_EPS and a[l] <= LIMIT_EPS:
            medium[(j, l)] = 2.0 * h[j, j]
        elif abs(a[j] - a[l]) <= LIMIT_EPS:
            m = 0.5 * (a[j] + a[l])
            medium[(j, l)] = 2.0 / math.tanh(2.0 * m) * g[j] + \
                0.5 * (h[j, j] - 2.0 * h[j, l] + h[l, l])
        else:
            num = math.sinh(2.0 * a[j]) * g[j] - math.sinh(2.0 * a[l]) * g[l]
            medium[(j, l)] = num / (math.sinh(a[j] + a[l]) * math.sinh(a[j] - a[l]))
    short = {}
    if nontube:
        for j in range(r):
            short[j] = 2.0 * h[j, j] if a[j] <= LIMIT_EPS else 2.0 / math.tanh(a[j]) * g[j]
    return {"a": block, "m": medium, "s": short}


def killing_blocks(b: float, r: int, nontube: bool) -> dict:
    return {"a": b * np.eye(r),
            "m": {jl: b for jl in itertools.combinations(range(r), 2)},
            "s": {j: b for j in range(r)} if nontube else {}}


def _reported_blocks(result: dict, r: int) -> dict:
    return {"a": np.asarray(result["a_block"], dtype=float).reshape(r, r),
            "m": {(e["j"] - 1, e["l"] - 1): e["value"] for e in result["medium_coeff"]},
            "s": {e["j"] - 1: e["value"] for e in result["short_coeff"]}}


def _compare(got: dict, want: dict, tol, what: str) -> str | None:
    if set(got["m"]) != set(want["m"]) or set(got["s"]) != set(want["s"]):
        return f"{what}: block layout differs"
    pairs = [(got["a"].reshape(-1), want["a"].reshape(-1), "a_block")]
    for key in ("m", "s"):
        keys = sorted(want[key])
        pairs.append((np.array([got[key][k] for k in keys]),
                      np.array([want[key][k] for k in keys]), key))
    for g, w, name in pairs:
        bad = np.abs(g - w) > tol(w)
        if np.any(bad):
            i = int(np.argmax(bad))
            return f"{what}: {name} entry {g[i]!r} differs from oracle {w[i]!r}"
    return None


# -- per-command checks -----------------------------------------------------------

def _levi(job, report):
    exp = job.expect
    points = job.config["points"]
    results = report["results"]
    if len(results) != len(points):
        return f"{len(results)} results for {len(points)} points"
    r = len(points[0])
    killing = exp["function"]["type"] == "killing"
    f = None if killing else slice_function(exp["function"], r)
    for H, res in zip(points, results):
        a = sorted((abs(x) for x in H), reverse=True)
        if res["point"] != a:
            return f"point {H} reduced to {res['point']}, expected {a}"
        if res["flags"] != expected_flags(a, exp["nontube"]):
            return f"flags {res['flags']} at {a}"
        if killing:
            want = killing_blocks(exp["b"], r, exp["nontube"])
            tol = lambda w: KILLING_TOL * exp["b"]  # noqa: E731
        else:
            want = fd_blocks(f, a, exp["nontube"])
            tol = lambda w: FD_TOL * (1.0 + np.abs(w))  # noqa: E731
        problem = _compare(_reported_blocks(res, r), want, tol, f"point {a}")
        if problem:
            return problem
    return None


def _psh(job, report):
    exp = job.expect
    rep = report["report"]
    if rep["verdict"] != exp["verdict"]:
        return f"verdict {rep['verdict']}, expected {exp['verdict']}"
    want_class = _verdict(exp["stein"])
    if report["classification"]["verdict"] != want_class or rep.get("stein_shadow") != exp["stein"]:
        return f"shadow classified {report['classification']['verdict']}, expected {want_class}"
    m = re.search(r"(\d+) points", rep["grid_spec"])
    if m is None or int(m.group(1)) != exp["grid_points"]:
        return f"grid {rep['grid_spec']!r}, expected {exp['grid_points']} points"
    if exp["function"]["type"] == "killing":
        b = exp["b"]
        values = [rep["min_a_block_eig"]]
        values += [v for v in (rep.get("min_medium"), rep.get("min_short")) if v is not None]
        if any(abs(v - b) > KILLING_TOL * b for v in values):
            return f"block minima {values}, expected {b}"
    elif exp["stein"]:
        # on the transfer path the witness is where the a-block eigenvalue is least
        a = rep["witness_point"]
        f = slice_function(exp["function"], len(a))
        want = float(np.linalg.eigvalsh(fd_blocks(f, a, False)["a"])[0])
        if abs(rep["min_a_block_eig"] - want) > FD_TOL * (1.0 + abs(want)):
            return f"min a-block eigenvalue {rep['min_a_block_eig']!r}, oracle {want!r} at {a}"
    return None


def _verdict(stein: bool) -> str:
    return "stein" if stein else "not_stein"


def _classify(job, report):
    got = report["result"]["verdict"]
    want = _verdict(job.expect["stein"])
    return None if got == want else f"classified {got}, expected {want}"


def _inside(point, boxes) -> bool:
    return any(all(lo <= x < hi for lo, x, hi in zip(b["lo"], point, b["hi"])) for b in boxes)


def _envelope(job, report):
    inp, env = report["input_shadow"]["boxes"], report["envelope"]["boxes"]
    if job.expect["stein"]:
        if report["changed"] or env != inp:
            return "envelope of a Stein shadow changed it"
        return None
    if not report["changed"]:
        return "envelope of a non-Stein shadow left it unchanged"
    if report["classification_after"]["verdict"] != "stein":
        return "envelope is not Stein"
    for box in inp:
        for corner in itertools.product((0.01, 0.5, 0.99), repeat=len(box["lo"])):
            p = [lo + c * (hi - lo) for c, lo, hi in zip(corner, box["lo"], box["hi"])]
            if not _inside(p, env):
                return f"envelope misses input point {p}"
    return None


def _potential(job, report):
    b = job.expect["b"]
    points = job.config["points"]
    results = report["results"]
    if len(results) != len(points):
        return f"{len(results)} results for {len(points)} points"
    for H, res in zip(points, results):
        # (b/4) sum rho_hat(2 a_j) with rho_hat(2a) = 2 log cosh a
        value = 0.5 * b * sum(math.log(math.cosh(x)) for x in H)
        moments = [-b * math.sinh(x) ** 2 for x in H]
        if res["point"] != H:
            return f"point {H} reported as {res['point']}"
        if abs(res["value"] - value) > 1e-10 * (1.0 + abs(value)):
            return f"potential {res['value']!r} at {H}, oracle {value!r}"
        if any(abs(g - w) > 1e-10 * (1.0 + abs(w))
               for g, w in zip(res["moment_coefficients"], moments)):
            return f"moment coefficients {res['moment_coefficients']} at {H}"
    if "bergman_samples" in job.config:
        if not report.get("bergman", {}).get("identity_holds"):
            return "Bergman identity not reported to hold for b = 8"
    elif "bergman" in report:
        return "Bergman block without samples"
    return None


_CHECKS = {"levi": _levi, "psh": _psh, "stein-classify": _classify,
           "envelope": _envelope, "potential": _potential}
