"""Identity and property suites: the package's oracle battery.

Each suite checks one family of identities at desk scale and returns a
SuiteResult with its worst observed discrepancy.  The suites are deterministic
given a seed and double as the acceptance battery; the CLI ``verify`` command
runs them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .funcspace import InvariantFunction, parse_invariant, to_slice
from .levi import (
    a_diag_generic,
    a_diag_limit,
    assemble,
    congruence_check,
    medium_generic,
    medium_limit_equal,
    medium_limit_origin,
    reinhardt_levi,
    short_generic,
    short_limit,
)
from .model import SpaceKind, SymmetricSpaceModel, json_float
from .pshcheck import (
    Verdict,
    check_invariant_psh,
    convess_G,
    convess_properties,
    locate_minimum,
)
from .potential import (
    bergman_identify,
    killing_potential_invariant,
    killing_potential_modulus,
)
from .reinhardt import ReinhardtShadow, classify_domain, envelope


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst: Optional[float]
    details: dict

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "worst": None if self.worst is None else json_float(self.worst),
            "details": self.details,
        }


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def random_poly_expr(rng: np.random.Generator, r: int, max_terms: int = 3,
                     max_deg: int = 2) -> str:
    """A random polynomial in t_1..t_r; the parser symmetrizes it if needed."""
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n_terms):
        coef = float(np.round(rng.uniform(0.2, 1.5) * rng.choice([-1.0, 1.0]), 4))
        powers = rng.integers(0, max_deg + 1, size=r)
        if not powers.any():
            powers[int(rng.integers(0, r))] = 1
        factors = [
            f"t{j + 1}" if p == 1 else f"t{j + 1}^{int(p)}"
            for j, p in enumerate(powers)
            if p > 0
        ]
        terms.append(f"{coef}*" + "*".join(factors))
    return " + ".join(terms)


def _perturbed_potential(model: SymmetricSpaceModel, rng: np.random.Generator,
                         epsilon: float = 0.05) -> InvariantFunction:
    """The Killing potential plus epsilon times a random polynomial, as one
    expression: (b/4) sum_j rho_hat(2 a_j) is -(b/4) sum_j log(1 - t_j)."""
    r = model.rank
    poly = random_poly_expr(rng, r)
    killing = " + ".join(f"log(1 - t{j + 1})" for j in range(r))
    return parse_invariant(f"-({0.25 * model.killing_b!r})*({killing}) + {epsilon!r}*({poly})", r)


# ---------------------------------------------------------------------------


def suite_killing_calibration(seed: int = 0, short_coeff_factor: float = 2.0,
                              tol: float = 1e-9, points_per_model: int = 50) -> SuiteResult:
    """Assembled blocks of the canonical potential must equal b on every entry."""
    rng = _rng(seed, 1)
    worst = 0.0
    per_model = {}
    for kind in (SpaceKind.TUBE, SpaceKind.NON_TUBE):
        for r in range(1, 5):
            model = SymmetricSpaceModel(
                rank=r, kind=kind, mult_medium=2,
                mult_short=2 if kind is SpaceKind.NON_TUBE else 0, killing_b=8.0,
            )
            f = killing_potential_invariant(model)
            b = model.killing_b
            H = rng.uniform(-2.5, 2.5, size=(points_per_model, r))
            form = assemble(model, f, H, short_coeff_factor=short_coeff_factor)
            dev = float(np.max(np.abs(form.a_block - b * np.eye(r))))
            for v in (form.medium, form.short):
                dev = max(dev, float(np.max(np.abs(v - b), initial=0.0)))
            per_model[f"{kind.value}-r{r}"] = dev
            worst = max(worst, dev)
    return SuiteResult(
        name="killing_calibration",
        passed=worst < tol,
        worst=worst,
        details={"tolerance": tol, "per_model": per_model,
                 "short_coeff_factor": short_coeff_factor},
    )


def suite_bergman_identity(seed: int = 0, count: int = 1000) -> SuiteResult:
    """Rank-one potential equals -2 log(1 - rho^2) up to a vanishing constant."""
    rng = _rng(seed, 2)
    model = SymmetricSpaceModel(rank=1, kind=SpaceKind.TUBE, killing_b=8.0)
    samples = rng.uniform(0.001, 0.999, size=count)
    constant, deviation = bergman_identify(model, samples)
    passed = deviation < 1e-10 and abs(constant) < 1e-10
    return SuiteResult(
        name="bergman_identity",
        passed=passed,
        worst=max(deviation, abs(constant)),
        details={"constant": constant, "deviation": deviation, "samples": count},
    )


def suite_congruence(seed: int = 0, count: int = 100, tol: float = 1e-7) -> SuiteResult:
    """Complex Hessian vs diagonal congruence of the chamber block, both computed independently."""
    rng = _rng(seed, 3)
    worst = 0.0
    worst_case = None
    for i in range(count):
        r = int(rng.integers(1, 4))
        expr = random_poly_expr(rng, r)
        f = parse_invariant(expr, r)
        rho = rng.uniform(0.1, 0.9, size=r)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=r)
        z = rho * np.exp(1j * theta)
        rep = congruence_check(f, z)
        if rep.discrepancy > worst:
            worst = rep.discrepancy
            worst_case = {"expr": expr, "moduli": rho.tolist()}
    return SuiteResult(
        name="congruence",
        passed=worst < tol,
        worst=worst,
        details={"count": count, "tolerance": tol, "worst_case": worst_case},
    )


def suite_limit_continuity(seed: int = 0, count: int = 20, tol: float = 1e-5,
                           offset: float = 1e-8) -> SuiteResult:
    """Generic block formulas just off each degeneracy hyperplane vs the limit values."""
    rng = _rng(seed, 4)
    functions = [killing_potential_modulus(
        SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0))]
    while len(functions) < count:
        functions.append(parse_invariant(random_poly_expr(rng, 2), 2))

    worst = 0.0
    per_branch = {"a_diag": 0.0, "medium_equal": 0.0, "medium_origin": 0.0,
                  "short": 0.0, "complex_diag": 0.0}
    for f in functions:
        other = float(rng.uniform(0.4, 1.2))
        a = float(rng.uniform(0.4, 1.2))

        H_off = np.array([offset, other])
        H_on = np.array([0.0, other])
        jet_off = to_slice(f, H_off)
        jet_on = to_slice(f, H_on)
        d = float(abs(a_diag_generic(jet_off, H_off, 0) - a_diag_limit(jet_on, 0)))
        per_branch["a_diag"] = max(per_branch["a_diag"], d)

        H_off = np.array([a + offset, a])
        H_on = np.array([a, a])
        d = float(abs(
            medium_generic(to_slice(f, H_off), H_off, 0, 1)
            - medium_limit_equal(to_slice(f, H_on), H_on, 0, 1)
        ))
        per_branch["medium_equal"] = max(per_branch["medium_equal"], d)

        H_off = np.array([2.0 * offset, offset])
        H_on = np.array([0.0, 0.0])
        d = float(abs(
            medium_generic(to_slice(f, H_off), H_off, 0, 1)
            - medium_limit_origin(to_slice(f, H_on), 0)
        ))
        per_branch["medium_origin"] = max(per_branch["medium_origin"], d)

        H_off = np.array([offset, other])
        H_on = np.array([0.0, other])
        d = float(abs(
            short_generic(to_slice(f, H_off), H_off, 0)
            - short_limit(to_slice(f, H_on), 0)
        ))
        per_branch["short"] = max(per_branch["short"], d)

        z_off = np.array([offset, 0.5], dtype=complex)
        z_on = np.array([0.0, 0.5], dtype=complex)
        d = float(np.abs(
            reinhardt_levi(f, z_off)[0, 0] - reinhardt_levi(f, z_on)[0, 0]
        ))
        per_branch["complex_diag"] = max(per_branch["complex_diag"], d)

    worst = max(per_branch.values())
    return SuiteResult(
        name="limit_continuity",
        passed=worst < tol,
        worst=worst,
        details={"count": count, "tolerance": tol, "offset": offset,
                 "per_branch": per_branch},
    )


def suite_counterexample(grid_n: int = 16) -> SuiteResult:
    """|z|^4 on the disk: nonnegative form, strictness failing exactly at the origin."""
    model = SymmetricSpaceModel(rank=1, kind=SpaceKind.TUBE, killing_b=8.0)
    f = parse_invariant("t1^2", 1)
    shadow = ReinhardtShadow(1, [((0.0,), (1.0,))])
    report = check_invariant_psh(model, f, shadow, grid_n=grid_n)
    form_at_zero = assemble(model, f, [0.0])
    value_at_zero = float(form_at_zero.a_block[0, 0])
    witness_norm = float(np.max(np.abs(report.witness_point)))
    passed = (
        report.verdict is Verdict.PSH_NOT_STRICT
        and witness_norm < 1e-6
        and value_at_zero == 0.0
        and "limit:a1" in form_at_zero.flags
    )
    return SuiteResult(
        name="counterexample",
        passed=passed,
        worst=max(witness_norm, abs(value_at_zero)),
        details={"verdict": report.verdict.value,
                 "witness": report.witness_point.tolist(),
                 "a_block_at_origin": value_at_zero,
                 "flags_at_origin": form_at_zero.flags},
    )


def suite_positivity_transfer(seed: int = 0, count: int = 20,
                              grid_n: int = 6, tol: float = 1e-9) -> SuiteResult:
    """Whenever the chamber block is positive definite on a Stein shadow grid,
    every medium/short coefficient there must be strictly positive."""
    rng = _rng(seed, 5)
    full = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
    annulus = ReinhardtShadow(2, [((math.exp(-2.0),) * 2, (math.exp(-1.0),) * 2)])
    tube = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
    nontube = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2,
                                  killing_b=8.0)
    cases = [(tube, full), (tube, annulus), (nontube, full)]

    violations = 0
    definite_count = 0
    min_coeff_seen = math.inf
    for i in range(count):
        model, shadow = cases[i % len(cases)]
        f = _perturbed_potential(model, rng)
        report = check_invariant_psh(model, f, shadow, grid_n=grid_n, tolerance=tol)
        if report.min_a_block_eig > tol:
            definite_count += 1
            worst_coeff = report.min_medium
            if model.kind is SpaceKind.NON_TUBE:  # min_short is NaN for tube models
                worst_coeff = min(worst_coeff, report.min_short)
            min_coeff_seen = min(min_coeff_seen, worst_coeff)
            if worst_coeff <= 0.0:
                violations += 1
    passed = violations == 0 and definite_count > 0
    min_coeff_seen = json_float(min_coeff_seen)  # inf (no definite case) reads null
    return SuiteResult(
        name="positivity_transfer",
        passed=passed,
        worst=min_coeff_seen,
        details={"count": count, "definite_on_grid": definite_count,
                 "violations": violations,
                 "min_coefficient_seen": min_coeff_seen},
    )


def _annulus_exhaustion(lo: float, hi: float) -> InvariantFunction:
    """Convex-in-log exhaustion of an annular shadow: with s_j = log rho_j =
    log(t_j) / 2, the sum over j of 2 s_j^2 - log(s_j - log lo) - log(log hi - s_j)."""
    slo, shi = math.log(lo), math.log(hi)
    terms = [f"0.5*log(t{j})^2 - log(0.5*log(t{j}) - ({slo!r})) - log(({shi!r}) - 0.5*log(t{j}))"
             for j in (1, 2)]
    return parse_invariant(" + ".join(terms), 2)


def suite_minimum_location(seed: int = 0, position_tol: float = 1e-6) -> SuiteResult:
    """Exhaustion minima: diagonal on an origin-free annulus, origin on a complete shadow."""
    lo, hi = 0.15, 0.55
    annulus = ReinhardtShadow(2, [((lo, lo), (hi, hi))])
    tube = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
    f_ann = _annulus_exhaustion(lo, hi)
    rep_ann = locate_minimum(f_ann, annulus, grid_n=12, position_tol=position_tol)
    diag_defect = float(np.max(rep_ann.point) - np.min(rep_ann.point))

    full = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
    f_full = killing_potential_invariant(tube)
    rep_full = locate_minimum(f_full, full, grid_n=12, position_tol=position_tol)
    origin_defect = float(np.max(np.abs(rep_full.point)))

    passed = diag_defect < position_tol and origin_defect < position_tol
    return SuiteResult(
        name="minimum_location",
        passed=passed,
        worst=max(diag_defect, origin_defect),
        details={
            "annulus_minimum": rep_ann.to_json(),
            "complete_minimum": rep_full.to_json(),
            "diagonal_defect": diag_defect,
            "origin_defect": origin_defect,
        },
    )


def suite_convess(seed: int = 0, count: int = 20) -> SuiteResult:
    """First-derivative sign/symmetry diagnostics and the (2,1)-weight falsification."""
    rng = _rng(seed, 6)
    model = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
    full = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])

    diag_points = []
    for a in np.linspace(0.25, 1.25, 5):
        for delta in (0.02, 0.05, 0.1):
            diag_points.append((a - delta, a))

    failures = []
    for i in range(count):
        f = _perturbed_potential(model, rng)
        verdict = check_invariant_psh(model, f, full, grid_n=6).verdict
        if verdict is not Verdict.STRICTLY_PSH:
            failures.append({"index": i, "stage": "strictness", "verdict": verdict.value})
            continue
        props = convess_properties(f, amax=1.4, n=7)
        if not props.all_pass:
            failures.append({"index": i, "stage": "properties",
                             "report": props.to_json()})
            continue
        g_values = [convess_G(f, (2.0, 1.0), p) for p in diag_points]
        if min(g_values) > 0.0:
            failures.append({"index": i, "stage": "falsification",
                             "min_G": float(min(g_values))})
    return SuiteResult(
        name="convess",
        passed=not failures,
        worst=None,
        details={"count": count, "failures": failures,
                 "diag_points": len(diag_points)},
    )


_FIXTURES = None


def classification_fixtures():
    """Six shadow geometries classified under both model kinds (12 cases)."""
    global _FIXTURES
    if _FIXTURES is not None:
        return _FIXTURES
    e1, e2 = math.exp(-1.0), math.exp(-2.0)
    full = ReinhardtShadow(2, [((0.0, 0.0), (1.0, 1.0))])
    annulus = ReinhardtShadow(2, [((e2, e2), (e1, e1))])
    two_annuli = ReinhardtShadow(
        2, [((0.1, 0.1), (0.2, 0.2)), ((0.5, 0.5), (0.6, 0.6))]
    )
    l_shape = ReinhardtShadow(
        2, [((0.5, 0.0), (1.0, 1.0)), ((0.0, 0.5), (0.5, 1.0))]
    )
    staircase = ReinhardtShadow(
        2, [((0.0, 0.0), (0.9, 0.1)), ((0.0, 0.0), (0.1, 0.9))]
    )
    asym_pair = ReinhardtShadow(2, [((0.1, 0.5), (0.2, 0.6))])

    shadows = {
        "full": full,
        "annulus": annulus,
        "two_annuli": two_annuli,
        "l_shape": l_shape,
        "staircase": staircase,
        "asym_pair": asym_pair,
    }
    expected = {
        ("tube", "full"): True,
        ("nontube", "full"): True,
        ("tube", "annulus"): True,
        ("nontube", "annulus"): False,
        ("tube", "two_annuli"): False,
        ("nontube", "two_annuli"): False,
        ("tube", "l_shape"): False,
        ("nontube", "l_shape"): False,
        ("tube", "staircase"): False,
        ("nontube", "staircase"): False,
        ("tube", "asym_pair"): False,
        ("nontube", "asym_pair"): False,
    }
    _FIXTURES = (shadows, expected)
    return _FIXTURES


def suite_classification() -> SuiteResult:
    """Twelve fixtures classified exactly; envelopes of all NotStein fixtures come
    out Stein; the envelope is idempotent on every fixture."""
    shadows, expected = classification_fixtures()
    tube = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
    nontube = SymmetricSpaceModel(rank=2, kind=SpaceKind.NON_TUBE, mult_short=2,
                                  killing_b=8.0)
    models = {"tube": tube, "nontube": nontube}

    mismatches = []
    envelope_failures = []
    for (kind, name), want_stein in sorted(expected.items()):
        model = models[kind]
        shadow = shadows[name]
        result = classify_domain(model, shadow)
        if result.stein != want_stein:
            mismatches.append({"model": kind, "shadow": name,
                               "expected": want_stein, "got": result.stein,
                               "reasons": result.reasons})
            continue
        env = envelope(model, shadow)
        if not classify_domain(model, env).stein:
            envelope_failures.append({"model": kind, "shadow": name,
                                      "stage": "stein_after_envelope"})
        if envelope(model, env) != env:
            envelope_failures.append({"model": kind, "shadow": name,
                                      "stage": "idempotence"})
    passed = not mismatches and not envelope_failures
    return SuiteResult(
        name="classification",
        passed=passed,
        worst=None,
        details={"cases": len(expected), "mismatches": mismatches,
                 "envelope_failures": envelope_failures},
    )


def run_all(seed: int = 0, short_coeff_factor: float = 2.0,
            grid_n: Optional[int] = None) -> list:
    """Run every suite with deterministic per-suite seeds.

    ``grid_n`` sets the function-evaluation grids of the counterexample and
    positivity-transfer suites; the classification suite is exact and has none.
    """
    results = [
        suite_killing_calibration(seed, short_coeff_factor=short_coeff_factor),
        suite_bergman_identity(seed),
        suite_congruence(seed),
        suite_limit_continuity(seed),
        suite_counterexample(grid_n or 16),
        suite_positivity_transfer(seed, grid_n=grid_n or 6),
        suite_minimum_location(seed),
        suite_convess(seed),
        suite_classification(),
    ]
    return results
