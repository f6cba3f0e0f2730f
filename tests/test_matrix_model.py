"""The block formulas against the complex Hessian on classical matrix domains.

I_{p,q} = {Z in C^{p x q} : I - ZZ* > 0} has rank p, is of tube type iff
p = q, and has medium multiplicity 2 and short multiplicity 2(q - p).  Type
III, the symmetric Z with coordinates w_jl (j <= l), has rank p, tube type
and medium multiplicity 1.  On either domain the invariant function

    f(Z) = -(b/4) log det(I - ZZ*) + eps (c1 p1 + c2 p2 + c3 p1^2),  p_k = tr((ZZ*)^k),

is explicit in Z, and its restriction to the slice Z0 = [diag(tanh a) | 0]
is the t-expression below (t_j = tanh^2 a_j).  Its complex Hessian at Z0,
taken by central differences in the real coordinates, is block diagonal in
the matrix entries: the diagonal entries give the a-block, {z_jl, z_lj}
(type III: w_jl) the medium pair j < l, and each z_jm with m >= p a short
block.  On each block the congruence to the slice form is the same for every
function, so the generalized eigenvalues of (L_f, L_g), g the eps = 0
function, are the package's values for f divided by its values for g, which
are all b (the Killing calibration, at the default short factor 2).
"""

import itertools

import numpy as np
import pytest

from levislice import levi
from levislice.funcspace import parse_invariant
from levislice.levi import assemble
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.pshcheck import Verdict, check_invariant_psh
from levislice.reinhardt import ReinhardtShadow

B = 8.0
C = (0.7, -0.4, 0.9)          # c1, c2, c3
EPSILONS = (-1.0, 2.0, 5.0)
H_FD = 1e-4
# generalized eigenvalues are ratios near 1: the central differences are good
# to 4e-7 at a <= 1.5 (their error grows with cosh^2 a), and the medium mutant
# below is off by 1e-2 or more wherever it changes the form
TOL = 1e-5

# (name, p, q): q = None is type III of size p
SPACES = [("I_2,2", 2, 2), ("I_2,3", 2, 3), ("I_3,3", 3, 3), ("I_3,4", 3, 4),
          ("III_2", 2, None), ("III_3", 3, None)]
POINTS = {
    2: [(0.9, 0.35), (0.7, 0.0), (0.5, 0.5), (1.5, 1.2)],
    3: [(1.1, 0.6, 0.25), (0.8, 0.3, 0.0), (0.6, 0.6, 0.2), (0.7, 0.0, 0.0)],
}


class Domain:
    """Complex coordinates u of a matrix domain, with their block structure."""

    def __init__(self, p, q):
        self.p, self.q = p, q
        if q is None:  # type III: u lists w_jl, j <= l
            self.entries = [(j, l) for j in range(p) for l in range(j, p)]
        else:
            self.entries = [(j, l) for j in range(p) for l in range(q)]
        index = {e: i for i, e in enumerate(self.entries)}
        self.a_block = [index[(j, j)] for j in range(p)]
        self.medium = [[index[(j, l)]] if q is None else [index[(j, l)], index[(l, j)]]
                       for j, l in itertools.combinations(range(p), 2)]
        self.short = ([] if q is None else
                      [(j, index[(j, m)]) for j in range(p) for m in range(p, q)])

    def model(self) -> SymmetricSpaceModel:
        if self.q is None:
            return SymmetricSpaceModel(rank=self.p, mult_medium=1, killing_b=B)
        if self.p == self.q:
            return SymmetricSpaceModel(rank=self.p, killing_b=B)
        return SymmetricSpaceModel(rank=self.p, kind=SpaceKind.NON_TUBE,
                                   mult_short=2 * (self.q - self.p), killing_b=B)

    def matrices(self, u: np.ndarray) -> np.ndarray:
        """Z for a stack of coordinate vectors u, (..., N) -> (..., p, q)."""
        cols = self.p if self.q is None else self.q
        Z = np.zeros(u.shape[:-1] + (self.p, cols), dtype=complex)
        for i, (j, l) in enumerate(self.entries):
            Z[..., j, l] = u[..., i]
            if self.q is None:
                Z[..., l, j] = u[..., i]
        return Z

    def slice_point(self, a) -> np.ndarray:
        u = np.zeros(len(self.entries), dtype=complex)
        u[self.a_block] = np.tanh(a)
        return u


def killing_part(Z):
    W = Z @ np.conj(np.swapaxes(Z, -1, -2))
    return -(B / 4.0) * np.linalg.slogdet(np.eye(W.shape[-1]) - W)[1]


def poly_part(Z):
    W = Z @ np.conj(np.swapaxes(Z, -1, -2))
    p1 = np.trace(W, axis1=-2, axis2=-1).real
    p2 = np.trace(W @ W, axis1=-2, axis2=-1).real
    return C[0] * p1 + C[1] * p2 + C[2] * p1 ** 2


def package_function(r: int, eps: float):
    ts = [f"t{j + 1}" for j in range(r)]
    killing = " + ".join(f"log(1 - {t})" for t in ts)
    p1 = " + ".join(ts)
    p2 = " + ".join(f"{t}^2" for t in ts)
    return parse_invariant(f"-({B / 4!r})*({killing}) + {eps!r}*({C[0]!r}*({p1}) "
                           f"+ {C[1]!r}*({p2}) + {C[2]!r}*({p1})^2)", r)


def complex_hessian(domain: Domain, fn, u0: np.ndarray) -> np.ndarray:
    """(d^2 fn / du_j dubar_k) at u0 by central differences in the real coordinates."""
    n = len(u0)
    x0 = np.concatenate([u0.real, u0.imag])
    steps = H_FD * np.eye(2 * n)
    # f(x + s h e_i + t h e_k) for every i, k and s, t in {+1, -1}
    signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float)
    x = (x0 + signs[:, 0, None, None, None] * steps[None, :, None, :]
         + signs[:, 1, None, None, None] * steps[None, None, :, :])
    values = fn(domain.matrices(x[..., :n] + 1j * x[..., n:]))
    H = (values[0] - values[1] - values[2] + values[3]) / (4.0 * H_FD ** 2)
    xx, xy, yx, yy = H[:n, :n], H[:n, n:], H[n:, :n], H[n:, n:]
    return (xx + yy + 1j * (xy - yx)) / 4.0


def generalized_eigs(Lf: np.ndarray, Lg: np.ndarray, idx) -> np.ndarray:
    chol = np.linalg.cholesky(Lg[np.ix_(idx, idx)])
    inv = np.linalg.inv(chol)
    return np.linalg.eigvalsh(inv @ Lf[np.ix_(idx, idx)] @ np.conj(inv.T))


def oracle_errors(domain: Domain, a) -> tuple:
    """(worst block mismatch over EPSILONS, worst off-block entry), both
    relative to the scale of the Killing part's Hessian."""
    u0 = domain.slice_point(a)
    Lg = complex_hessian(domain, killing_part, u0)
    Lp = complex_hessian(domain, poly_part, u0)
    scale = np.max(np.abs(Lg))
    blocks = ([domain.a_block] + domain.medium + [[i] for _, i in domain.short])
    off = np.ones(Lg.shape, dtype=bool)
    for idx in blocks:
        off[np.ix_(idx, idx)] = False
    off_block = max(np.max(np.abs(Lg[off]), initial=0.0),
                    np.max(np.abs(Lp[off]), initial=0.0)) / scale

    worst = 0.0
    for eps in EPSILONS:
        Lf = Lg + eps * Lp
        form = assemble(domain.model(), package_function(domain.p, eps), np.asarray(a))
        expected = [np.linalg.eigvalsh(form.a_block) / B]
        expected += [np.full(len(idx), m / B) for idx, m in zip(domain.medium, form.medium)]
        expected += [np.array([form.short[j] / B]) for j, _ in domain.short]
        for idx, want in zip(blocks, expected):
            got = generalized_eigs(Lf, Lg, idx)
            err = np.abs(got - np.sort(want)) / np.maximum(1.0, np.abs(want))
            worst = max(worst, float(np.max(err)))
    return worst, off_block


CASES = [(name, p, q, a) for name, p, q in SPACES for a in POINTS[p]]


@pytest.mark.parametrize("name,p,q,a", CASES, ids=[f"{c[0]}-{c[3]}" for c in CASES])
def test_blocks_match_the_complex_hessian(name, p, q, a):
    worst, off_block = oracle_errors(Domain(p, q), a)
    assert worst < TOL
    assert off_block < TOL


def test_killing_part_is_calibrated():
    # g alone: every generalized eigenvalue of (L_g, L_g) is 1, so the package's
    # values for g must all be b for the ratios above to mean anything
    for _, p, q in SPACES:
        domain = Domain(p, q)
        for a in POINTS[p]:
            form = assemble(domain.model(), package_function(p, 0.0), np.asarray(a))
            values = np.concatenate([np.linalg.eigvalsh(form.a_block), form.medium,
                                     form.short])
            assert np.allclose(values, B, rtol=1e-9)


@pytest.mark.parametrize("name,p,q,a", [
    ("I_3,3", 3, 3, (1.1, 0.6, 0.25)),   # generic medium formula
    ("I_2,3", 2, 3, (0.5, 0.5)),         # wall limit
    ("III_3", 3, None, (0.6, 0.6, 0.2)),
])
def test_oracle_catches_a_wrong_medium_coefficient(name, p, q, a, monkeypatch):
    # a term that vanishes for the Killing potential and is continuous across
    # the wall, so no self-consistency check of the package sees it
    generic, wall = levi.medium_generic, levi.medium_limit_equal
    monkeypatch.setattr(levi, "medium_generic",
                        lambda jet, H, j, l: generic(jet, H, j, l) + 0.1 * jet.hess[..., j, l])
    monkeypatch.setattr(levi, "medium_limit_equal",
                        lambda jet, H, j, l: wall(jet, H, j, l) + 0.1 * jet.hess[..., j, l])
    worst, _ = oracle_errors(Domain(p, q), a)
    assert worst > 10 * TOL


def test_not_psh_witness_has_a_negative_levi_eigenvalue():
    # eps p1 with eps < -b/4 outweighs the Killing part's (b/4) I at the origin
    domain = Domain(2, 3)
    f = parse_invariant(f"-({B / 4!r})*(log(1 - t1) + log(1 - t2)) - 2.5*(t1 + t2) "
                        f"- 0.5*(t1^2 + t2^2)", 2)
    shadow = ReinhardtShadow(2, [((0.0, 0.0), (0.8, 0.8))])
    report = check_invariant_psh(domain.model(), f, shadow, grid_n=6)
    assert report.verdict is Verdict.NOT_PSH

    def matrix_f(Z):
        W = Z @ np.conj(np.swapaxes(Z, -1, -2))
        return (killing_part(Z) - 2.5 * np.trace(W, axis1=-2, axis2=-1).real
                - 0.5 * np.trace(W @ W, axis1=-2, axis2=-1).real)

    L = complex_hessian(domain, matrix_f, domain.slice_point(report.witness_point))
    assert np.linalg.eigvalsh(L)[0] < -1e-3
