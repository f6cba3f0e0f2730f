"""Invariant functions on slice coordinates, in three charts, with exact jets.

A function can live in the slice chart (argument a in R^r), the modulus chart
(argument rho = tanh a in [0,1)^r) or the logarithmic chart (argument
s = log tanh a, requiring a > 0).  ``to_slice`` converts a native-chart jet
into the value/gradient/Hessian with respect to the slice coordinates via the
chain rule.  Derivatives are computed by truncated second-order Taylor
arithmetic (``Jet2``); ``fd_jet`` is an independent finite-difference oracle
and is never used as a fallback.

Evaluation is batched (Taylor-mode forward differentiation over a leading
batch axis, Bettencourt, Johnson & Duvenaud 2019): every ``eval_jet`` and
``to_slice`` maps an ``(..., r)`` array of points to a Jet2 with that leading
shape, value ``(...)``, grad ``(..., r)``, hess ``(..., r, r)``, and a single
point is the 0-d case.  An expression is therefore walked once per stack of
points rather than once per point.

The expression language works in the squared moduli t_j = rho_j^2, which makes
torus invariance and evenness in each slice coordinate structural rather than
checked.  Expressions that are not symmetric under coordinate permutations are
symmetrized by averaging and flagged; the r! permutations are one more batch
axis of the same walk.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np


class Chart(Enum):
    SLICE = "slice"
    MODULUS = "modulus"
    LOG = "log"


class ChartDomainError(ValueError):
    """Point violates the chart's domain (modulus outside hint, log at a <= 0)."""


class NonFiniteJetError(ArithmeticError):
    """Evaluation produced a non-finite value or derivative."""


class ExpressionError(ValueError):
    """Invalid invariant-function expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# second-order forward-mode arithmetic


class Jet2:
    """Value, gradient and symmetric Hessian of a scalar at a stack of points.

    The components carry the leading (batch) shape of the points: value
    ``(...)``, grad ``(..., r)``, hess ``(..., r, r)``; a single point is the
    0-d case.  Doubles as the number type of the forward-mode engine:
    arithmetic propagates first and second derivatives exactly (truncated
    Taylor arithmetic in r perturbation directions and their pairwise
    products) and broadcasts over the leading axes like numpy arrays.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad, hess, _symmetrize=True):
        self.value = np.asarray(value, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if _symmetrize:
            hess_t = np.swapaxes(hess, -1, -2)
            # checked point by point, each against its own scale
            asym = np.max(np.abs(hess - hess_t), axis=(-2, -1), initial=0.0)
            scale = 1.0 + np.max(np.abs(hess), axis=(-2, -1), initial=0.0)
            if np.any(asym > 1e-12 * scale):
                raise ValueError(f"Hessian asymmetry {np.max(asym):.3e} exceeds tolerance")
            hess = 0.5 * (hess + hess_t)
        self.hess = hess

    @staticmethod
    def constant(c: float, r: int) -> "Jet2":
        return Jet2(c, np.zeros(r), np.zeros((r, r)), _symmetrize=False)

    @staticmethod
    def variable(x: float, index: int, r: int) -> "Jet2":
        g = np.zeros(r)
        g[index] = 1.0
        return Jet2(x, g, np.zeros((r, r)), _symmetrize=False)

    @property
    def rank(self) -> int:
        return self.grad.shape[-1]

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.value))
            and np.all(np.isfinite(self.grad))
            and np.all(np.isfinite(self.hess))
        )

    # -- arithmetic ---------------------------------------------------------
    # Plain numbers take short cuts that skip their all-zero derivatives.

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad,
                        self.hess + other.hess, _symmetrize=False)
        if isinstance(other, _NUMBER):
            return Jet2(self.value + other, self.grad, self.hess, _symmetrize=False)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess, _symmetrize=False)

    def __sub__(self, other):
        if not isinstance(other, (Jet2, *_NUMBER)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return Jet2(self.value * other, self.grad * other, self.hess * other,
                        _symmetrize=False)
        if not isinstance(other, Jet2):
            return NotImplemented
        v, w = self.value[..., None], other.value[..., None]
        cross = _outer(self.grad, other.grad)
        return Jet2(
            self.value * other.value,
            self.grad * w + v * other.grad,
            self.hess * w[..., None] + cross + np.swapaxes(cross, -1, -2)
            + v[..., None] * other.hess,
            _symmetrize=False,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return self.__mul__(1.0 / other)
        if not isinstance(other, Jet2):
            return NotImplemented
        return self.__mul__(_reciprocal(other))

    def __rtruediv__(self, other):
        return _reciprocal(self) * other

    def __pow__(self, p):
        if isinstance(p, Jet2):
            return jet_exp(p * jet_log(self))
        p = float(p)
        if p == 0:
            return Jet2(np.ones_like(self.value), np.zeros_like(self.grad),
                        np.zeros_like(self.hess), _symmetrize=False)
        if p == 1:
            return self
        v = self.value
        if p != round(p) and np.any(v < 0):
            raise NonFiniteJetError(
                f"negative base {v[v < 0].flat[0]} with non-integer exponent {p}")
        if p < 2 and np.any(v == 0.0):
            raise NonFiniteJetError(f"zero base with exponent {p} < 2 has no finite jet")
        # for p >= 2 every power below is finite at v = 0 (0.0**0 == 1)
        return _lift(self, v**p, p * v ** (p - 1), p * (p - 1) * v ** (p - 2))

    def __repr__(self):
        return f"Jet2(value={self.value!r}, grad={self.grad!r})"


_NUMBER = (int, float, np.floating, np.integer)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x[..., :, None] * y[..., None, :]


def _lift(u: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar map with known derivatives f0 = f(u), f1 = f'(u), f2 = f''(u)."""
    f1, f2 = np.asarray(f1)[..., None], np.asarray(f2)[..., None, None]
    return Jet2(
        f0,
        f1 * u.grad,
        f1[..., None] * u.hess + f2 * _outer(u.grad, u.grad),
        _symmetrize=False,
    )


def _reciprocal(u: Jet2) -> Jet2:
    v = u.value
    return _lift(u, 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def jet_exp(u: Jet2) -> Jet2:
    e = np.exp(u.value)
    return _lift(u, e, e, e)


def jet_log(u: Jet2) -> Jet2:
    if np.any(u.value <= 0):
        raise NonFiniteJetError(f"log of non-positive value {u.value[u.value <= 0].flat[0]}")
    return _lift(u, np.log(u.value), 1.0 / u.value, -1.0 / u.value**2)


def jet_cosh(u: Jet2) -> Jet2:
    return _lift(u, np.cosh(u.value), np.sinh(u.value), np.cosh(u.value))


def jet_sinh(u: Jet2) -> Jet2:
    return _lift(u, np.sinh(u.value), np.cosh(u.value), np.sinh(u.value))


def jet_tanh(u: Jet2) -> Jet2:
    t = np.tanh(u.value)
    sech2 = 1.0 - t * t
    return _lift(u, t, sech2, -2.0 * t * sech2)


_JET_FUNCS = {
    "exp": jet_exp,
    "log": jet_log,
    "cosh": jet_cosh,
    "sinh": jet_sinh,
    "tanh": jet_tanh,
}


def diag_matrix(d: np.ndarray) -> np.ndarray:
    """Stack of diagonal matrices ``(..., r, r)`` from diagonals ``(..., r)``."""
    return d[..., :, None] * np.eye(d.shape[-1])


# ---------------------------------------------------------------------------
# invariant functions


@dataclass
class InvariantFunction:
    """A signed-permutation-invariant function given by a native-chart jet callback.

    ``eval_jet`` maps native-chart points, an ``(..., rank)`` array, to the
    Jet2 of the function with that leading shape (a single point is the 0-d
    case), with derivatives taken in the native chart's coordinates.  Calls
    go through ``__call__``, which evaluates under ``np.errstate`` and turns
    any non-finite result into NonFiniteJetError.
    """

    rank: int
    chart: Chart
    eval_jet: Callable[[np.ndarray], Jet2]
    domain_hint: Optional[object] = None  # ReinhardtShadow, kept untyped to avoid a cycle
    symmetrized: bool = False
    label: Optional[str] = None

    def __call__(self, point: Sequence[float]) -> Jet2:
        point = np.asarray(point, dtype=float)
        with np.errstate(all="ignore"):
            jet = self.eval_jet(point)
        if not jet.is_finite():
            raise NonFiniteJetError(
                f"non-finite jet of {self.label or 'function'} at {point.tolist()}"
            )
        return jet


def to_slice(f: InvariantFunction, H: Sequence[float]) -> Jet2:
    """Jet of the slice-chart restriction at the points H, ``(..., rank)``, via
    the chart chain rule.

    Modulus chart: d/da_j picks up sech^2(a_j) and the diagonal Hessian
    correction -2 sinh a_j / cosh^3 a_j.  Log chart: s_j = log tanh a_j with
    s_j' = 2 / sinh 2a_j, defined only for a_j > 0.
    """
    H = np.asarray(H, dtype=float)
    if H.shape[-1:] != (f.rank,):
        raise ValueError(f"point has shape {H.shape}, expected (..., {f.rank})")
    if f.chart is Chart.SLICE:
        return f(H)

    if f.chart is Chart.MODULUS:
        rho = np.tanh(H)
        if f.domain_hint is not None and not all(
            f.domain_hint.contains(m) for m in np.abs(rho).reshape(-1, f.rank)
        ):
            raise ChartDomainError(f"moduli {np.abs(rho)} outside the domain hint")
        jet = f(rho)
        with np.errstate(all="ignore"):
            s1 = 1.0 / np.cosh(H) ** 2
            diag = -jet.grad * 2.0 * np.sinh(H) / np.cosh(H) ** 3
    else:  # log chart
        if np.any(H <= 0):
            raise ChartDomainError(f"log chart requires all a_j > 0, got {H}")
        jet = f(np.log(np.tanh(H)))
        with np.errstate(all="ignore"):
            s1 = 2.0 / np.sinh(2.0 * H)
            diag = jet.grad * (-4.0 * np.cosh(2.0 * H) / np.sinh(2.0 * H) ** 2)

    hess = jet.hess * _outer(s1, s1)
    idx = np.arange(f.rank)
    hess[..., idx, idx] += diag
    out = Jet2(jet.value, jet.grad * s1, hess)
    if not out.is_finite():
        raise NonFiniteJetError(f"non-finite chart derivatives of {f.label or 'function'}")
    return out


def slice_value(f: InvariantFunction, H: Sequence[float]) -> float:
    """Value-only evaluation at one slice point; non-finite values become +inf.

    Used by derivative-free search where a blow-up near an exhaustion
    boundary is data, not an error.
    """
    try:
        return float(to_slice(f, H).value)
    except NonFiniteJetError:
        return math.inf


def add_invariant(parts: Sequence[InvariantFunction],
                  weights: Optional[Sequence[float]] = None,
                  label: Optional[str] = None) -> InvariantFunction:
    """Weighted sum of invariant functions, assembled in the slice chart."""
    if not parts:
        raise ValueError("empty sum")
    r = parts[0].rank
    if any(p.rank != r for p in parts):
        raise ValueError("rank mismatch in sum")
    w = [1.0] * len(parts) if weights is None else [float(x) for x in weights]

    def eval_jet(H):
        jets = [to_slice(p, H) for p in parts]
        value = sum(wi * j.value for wi, j in zip(w, jets))
        grad = sum(wi * j.grad for wi, j in zip(w, jets))
        hess = sum(wi * j.hess for wi, j in zip(w, jets))
        return Jet2(value, grad, hess)

    return InvariantFunction(rank=r, chart=Chart.SLICE, eval_jet=eval_jet,
                             symmetrized=any(p.symmetrized for p in parts),
                             label=label)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_jet(f: Callable[[np.ndarray], float], x: Sequence[float], h: float = 1e-4) -> Jet2:
    """Central second-order finite-difference jet; O(h^2) error.

    Steps are scaled per coordinate by max(1, |x_j|).  This is the
    independent oracle for the forward-mode engine: discrepancies between the
    two are reported by callers, never resolved silently.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    r = x.shape[0]
    steps = h * np.maximum(1.0, np.abs(x))
    f0 = float(f(x))
    grad = np.zeros(r)
    hess = np.zeros((r, r))
    for j in range(r):
        ej = np.zeros(r)
        ej[j] = steps[j]
        fp = float(f(x + ej))
        fm = float(f(x - ej))
        grad[j] = (fp - fm) / (2.0 * steps[j])
        hess[j, j] = (fp - 2.0 * f0 + fm) / steps[j] ** 2
    for j in range(r):
        for l in range(j + 1, r):
            ej = np.zeros(r)
            el = np.zeros(r)
            ej[j] = steps[j]
            el[l] = steps[l]
            val = (
                float(f(x + ej + el))
                - float(f(x + ej - el))
                - float(f(x - ej + el))
                + float(f(x - ej - el))
            ) / (4.0 * steps[j] * steps[l])
            hess[j, l] = hess[l, j] = val
    return Jet2(f0, grad, hess)


# ---------------------------------------------------------------------------
# expression language over squared moduli t_1..t_r


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|\-|\*|/|\(|\)))"
)


def _tokenize(expr: str):
    tokens = []
    pos = 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if m is None or m.end() == pos:
            stripped = expr[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(expr) - len(stripped)
            raise ExpressionError(f"unexpected character {expr[bad_at]!r}", bad_at)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(expr)))
    return tokens


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*, term := unary
    (('*'|'/') unary)*, unary := '-' unary | power, power := atom ('^' unary)?,
    atom := number | t<k> | func '(' expr ')' | '(' expr ')'."""

    def __init__(self, expr: str, r: int):
        self.tokens = _tokenize(expr)
        self.i = 0
        self.r = r
        self.max_var = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind == "op" and val == op:
            self.next()
            return
        raise ExpressionError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = (val, node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = (val, node, rhs)
            else:
                return node

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.unary()
            node = ("^", node, exponent)
        return node

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            m = re.fullmatch(r"t(\d+)", val)
            if m:
                idx = int(m.group(1))
                if idx < 1:
                    raise ExpressionError("variable indices start at t1", pos)
                if idx > self.r:
                    raise ExpressionError(
                        f"variable t{idx} inconsistent with rank {self.r}", pos
                    )
                self.max_var = max(self.max_var, idx)
                return ("var", idx - 1)
            if val in _JET_FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            raise ExpressionError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}", pos)


def _eval_ast(node, env):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "neg":
        return -_eval_ast(node[1], env)
    if op == "call":
        arg = _eval_ast(node[2], env)
        if isinstance(arg, Jet2):
            return _JET_FUNCS[node[1]](arg)
        return getattr(math, node[1])(arg)
    a = _eval_ast(node[1], env)
    b = _eval_ast(node[2], env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        if isinstance(a, Jet2) or isinstance(b, Jet2):
            if not isinstance(a, Jet2):
                a = Jet2.constant(a, b.rank)
            return a**b
        return a**b
    raise AssertionError(f"unhandled node {op}")


def _is_permutation_symmetric(ast, r: int, trials: int = 4) -> bool:
    if r == 1:
        return True
    rng = np.random.default_rng(20240613)
    perms = list(itertools.permutations(range(r)))
    for _ in range(trials):
        t = rng.uniform(0.05, 0.8, size=r)
        base = _eval_ast(ast, list(t))
        scale = 1.0 + abs(base)
        for perm in perms[1:]:
            if abs(_eval_ast(ast, list(t[list(perm)])) - base) > 1e-10 * scale:
                return False
    return True


def parse_invariant(expr: str, r: int) -> InvariantFunction:
    """Parse an expression in the squared moduli t_1..t_r into a modulus-chart function.

    Because the variables are squared moduli, the result is automatically
    torus-invariant and even in every slice coordinate.  Expressions that are
    not symmetric under coordinate permutations are replaced by their
    permutation average and flagged ``symmetrized=True``.
    """
    if r < 1:
        raise ValueError(f"rank must be >= 1, got {r}")
    parser = _Parser(expr, r)
    ast = parser.parse()
    symmetric = _is_permutation_symmetric(ast, r)
    perms = np.array([tuple(range(r))] if symmetric
                     else list(itertools.permutations(range(r))))
    # Permutations are one more batch axis: variable j of the AST reads
    # t_{perm[j]}, seeded with gradient 2 rho e_{perm[j]} and Hessian
    # 2 e_{perm[j]} e_{perm[j]}^T, so one walk covers every point and perm.
    picks = np.eye(r)[perms]                       # (P, r, r): [p, j] = e_{perm_p[j]}
    seed_hess = 2.0 * _outer(picks, picks)         # (P, r, r, r)

    def eval_jet(rho: np.ndarray) -> Jet2:
        x = rho[..., perms]                        # (..., P, r)
        lead = x.shape[:-1]
        env = [Jet2(x[..., j] * x[..., j], (2.0 * x[..., j, None]) * picks[:, j],
                    seed_hess[:, j], _symmetrize=False) for j in range(r)]
        out = _eval_ast(ast, env)
        if not isinstance(out, Jet2):
            out = Jet2.constant(float(out), r)
        return Jet2(np.broadcast_to(out.value, lead).mean(axis=-1),
                    np.broadcast_to(out.grad, lead + (r,)).mean(axis=-2),
                    np.broadcast_to(out.hess, lead + (r, r)).mean(axis=-3),
                    _symmetrize=False)

    return InvariantFunction(
        rank=r,
        chart=Chart.MODULUS,
        eval_jet=eval_jet,
        symmetrized=not symmetric,
        label=expr,
    )
