"""Linear algebra on the Levi blocks: the stacked eigen path of the psh check
against single-point oracles, and the diagonal congruence of the complex side."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levislice.funcspace import add_invariant, parse_invariant
from levislice.levi import a_block, congruence_check
from levislice.model import SpaceKind, SymmetricSpaceModel
from levislice.potential import killing_potential_invariant
from levislice.pshcheck import _block_minima, chamber_grid, check_invariant_psh
from levislice.reinhardt import ReinhardtShadow

TUBE2 = SymmetricSpaceModel(rank=2, kind=SpaceKind.TUBE, killing_b=8.0)
NONTUBE3 = SymmetricSpaceModel(rank=3, kind=SpaceKind.NON_TUBE, mult_short=2,
                               killing_b=8.0)
FULL2 = ReinhardtShadow(2, [((0.0, 0.0), (0.9, 0.9))])


def _expression(coeffs, r):
    """A polynomial in the squared moduli, not symmetric for r > 1."""
    c1, c2, c3 = (f"({c:.4f})" for c in coeffs)
    cross = f" + {c2}*t1*t2" if r > 1 else ""
    return f"{c1}*t1{cross} + {c3}*t1^2 + t1^3"


def _stack(rng, r, n):
    """Chamber points with exact hyperplane and wall rows mixed in."""
    H = rng.uniform(0.0, 1.4, size=(n, r))
    H[0] = 0.0
    H[1, -1] = 0.0
    if r > 1:
        H[2, 1] = H[2, 0]
    return H


def test_diagonal():
    # a separable function has a diagonal a-block, whose least eigenvalue is
    # its least diagonal entry
    f = parse_invariant("t1^2 - 0.8*t1", 2)
    H = _stack(np.random.default_rng(3), 2, 12)
    eig, _, _ = _block_minima(TUBE2, f, H, 2.0)
    for i, row in enumerate(H):
        M = a_block(f, np.sort(row)[::-1])
        assert M[0, 1] == 0.0 and M[1, 0] == 0.0
        assert eig[i] == pytest.approx(min(M[0, 0], M[1, 1]), rel=1e-12, abs=1e-14)
    assert eig.min() < 0.0 < eig.max()


def test_killing_block_constant():
    for model in (TUBE2, NONTUBE3):
        H = _stack(np.random.default_rng(7), model.rank, 20)
        eig, medium, short = _block_minima(model, killing_potential_invariant(model),
                                           H, 2.0)
        assert eig.shape == (20,)
        assert np.allclose(eig, model.killing_b, atol=1e-10)
        assert np.allclose(medium, model.killing_b, atol=1e-9)
        if model.kind is SpaceKind.NON_TUBE:
            assert np.allclose(short, model.killing_b, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.integers(0, 10_000))
def test_min_eig_matches_numpy_oracle(r, coeffs, seed):
    # stacked minima equal the least eigenvalue of each single-point block
    model = SymmetricSpaceModel(rank=r, kind=SpaceKind.TUBE, killing_b=8.0)
    f = parse_invariant(_expression(coeffs, r), r)
    H = _stack(np.random.default_rng(seed), r, 8)
    eig, _, _ = _block_minima(model, f, H, 2.0)
    for i, row in enumerate(H):
        M = a_block(f, np.sort(row)[::-1])
        expected = float(np.linalg.eigvalsh(M)[0])
        assert eig[i] == pytest.approx(expected, abs=1e-9 * (1 + np.abs(M).max()))


def test_full_spectrum_sorted():
    # the reported least eigenvalue is the least entry of the ascending
    # per-point spectra over the whole grid
    f = parse_invariant("t1^2 - 0.3*t1*t2 - 0.2*t1", 2)
    report = check_invariant_psh(TUBE2, f, FULL2, grid_n=6)
    spectra = np.array([np.linalg.eigvalsh(a_block(f, H)) for H in chamber_grid(FULL2, 6)])
    assert np.all(np.diff(spectra, axis=1) >= 0.0)
    assert report.min_a_block_eig == pytest.approx(spectra[:, 0].min(), rel=1e-12)


def test_shift_property():
    # the a-block is linear in the function and the Killing block is
    # killing_b * I, so adding eps times the potential shifts every minimum
    f = parse_invariant("t1*t2 - 0.7*t1 + 0.2*t1^2", 2)
    eps = 0.37
    shifted = add_invariant([f, killing_potential_invariant(TUBE2)], [1.0, eps])
    H = _stack(np.random.default_rng(5), 2, 16)
    base, _, _ = _block_minima(TUBE2, f, H, 2.0)
    moved, _, _ = _block_minima(TUBE2, shifted, H, 2.0)
    assert np.allclose(moved, base + eps * TUBE2.killing_b, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.integers(0, 10_000))
def test_congruence_preserves_inertia_sign(r, coeffs, seed):
    # C M C* with invertible diagonal C: the complex side has the sign of the
    # least eigenvalue of the slice block (Sylvester's law of inertia)
    f = parse_invariant(_expression(coeffs, r), r)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.05, 0.85, size=r) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=r))
    rep = congruence_check(f, z)
    slice_min = float(np.linalg.eigvalsh(a_block(f, np.arctanh(np.abs(z))))[0])
    complex_min = float(np.linalg.eigvalsh(rep.complex_side)[0])
    assume(abs(slice_min) > 1e-6 + 1e3 * rep.discrepancy)
    assert np.sign(complex_min) == np.sign(slice_min)


def test_congruence_identity_and_phase():
    # a common phase on all coordinates leaves both sides unchanged
    f = parse_invariant("t1*t2 + 0.4*t1^2 - t1", 2)
    z = np.array([0.5, 0.3])
    real = congruence_check(f, z)
    turned = congruence_check(f, z * np.exp(0.7j))
    assert real.discrepancy < 1e-8 and turned.discrepancy < 1e-8
    assert np.allclose(turned.complex_side, real.complex_side, atol=1e-12)
    assert np.allclose(turned.slice_side, real.slice_side, atol=1e-12)
    c = np.cosh(np.arctanh(z)) ** 2
    assert np.allclose(real.slice_side, np.outer(c, c) * a_block(f, np.arctanh(z)),
                       atol=1e-12)
    assert math.isclose(real.complex_side[0, 1].imag, 0.0, abs_tol=1e-15)


def test_congruence_dimension_mismatch():
    with pytest.raises(ValueError):
        congruence_check(parse_invariant("t1 + t2", 2), [0.1, 0.2, 0.3])
