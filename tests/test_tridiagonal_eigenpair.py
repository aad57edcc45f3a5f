"""One eigenpair of a symmetric tridiagonal matrix from Sturm counts, and
the long-time survival that takes its initial mode from it."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanonet import PiLatticeSpec, assemble_hamiltonian, build_pi_lattice, diagonalize, \
    evanescent_bound_states, long_time_survival, resonant_bound_states
from fanonet import spectra
from fanonet.cli import main
from fanonet.spectra import fold_chain, mirror_mode, tridiagonal_eigenpair

from _support import dense_long_time_survival, dense_mirror_blocks

UNIT_ROUNDOFF = 2.0**-53
TINY = np.finfo(float).tiny


def gamma(k):
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def energy_bound(diagonal, off_diagonal, energy):
    """How far a correct eigenvalue of T and eigh's can lie apart: the
    bracket's width 4 u ||T||_inf plus 2 pivmin, the counts' backward error
    u (max|a| + |E|) + 2 gamma_2 max|b| + 3 pivmin (CHANGES.md), both with
    |E| up to ||T||_inf, and eigh's backward error, gamma_n ||T||_inf (as in
    scripts/check_sector_eigenpairs.py)."""
    n = len(diagonal)
    norm = np.max(np.abs(diagonal) + np.abs(np.append(off_diagonal, 0))
                  + np.abs(np.insert(off_diagonal, 0, 0)))
    b_max = np.max(np.abs(off_diagonal), initial=0.0)
    pivmin = TINY * max(1.0, b_max**2)
    counts = UNIT_ROUNDOFF * (np.max(np.abs(diagonal)) + abs(energy) + norm) \
        + 2 * gamma(2) * b_max + 3 * pivmin
    return 4 * UNIT_ROUNDOFF * norm + 2 * pivmin + counts + gamma(n) * norm


def residual(block, energy, vector):
    return np.linalg.norm(block @ vector - energy * vector)


def mode_gap_bound(block, column, energy, vector):
    """The dense eigenvector of ``column`` aligned in sign with ``vector``,
    and how far the two may lie apart: each leans from the exact eigenvector
    by an angle whose sine is at most its residual over the gap to the
    other eigenvalues (Davis-Kahan), and unit vectors at an angle theta
    <= pi/2 lie sqrt(2) sin(theta) apart, so at most
    (pi / sqrt(2)) (r + r_dense) / gap < 2.5 (r + r_dense) / gap."""
    energies, vectors = diagonalize(block)
    dense = vectors[:, column] * np.sign(vectors[:, column] @ vector)
    others = np.delete(energies, column)
    gap = np.min(np.abs(others - energies[column]), initial=np.inf) \
        - energy_bound(np.diag(block), np.diag(block, 1), energy)
    r = residual(block, energy, vector) + residual(block, energies[column], dense)
    return dense, energies[column], 2.5 * r / gap


def chain_sector(n0, length, kappa, kappa0, mode):
    """Diagonal, off-diagonal and dense block of the central chain's mirror
    sector that holds ``mode``, and the mode's column there; the two
    diagonals as ``long_time_survival`` folds them from the chain's
    hoppings, bitwise the dense block's."""
    spec = PiLatticeSpec(n0, length, kappa, kappa0)
    chain = build_pi_lattice(spec).graph
    sector, column = mirror_mode(mode)
    which = 0 if sector > 0 else 1
    diagonal, off_diagonal = fold_chain(spec.central_hoppings)[which]
    block = dense_mirror_blocks(assemble_hamiltonian(chain))[which]
    assert diagonal.tobytes() == np.diag(block).tobytes()
    assert off_diagonal.tobytes() == np.diag(block, 1).tobytes()
    return diagonal, off_diagonal, block, column


@given(n0=st.integers(1, 5), length=st.integers(2, 1000), kappa=st.floats(0.3, 3.0),
       kappa0=st.sampled_from([1.0]) | st.floats(0.15, 10.0),
       # taken modulo the central size
       mode=st.integers(1, 2010))
# E = 0 exactly, with exact zeros on alternate sites, where a zero pivot of
# the LDL^T form once broke a twisted factorization
@example(n0=4, length=7, kappa=1.0, kappa0=3.233, mode=8)
# 2-site blocks, both sectors
@example(n0=1, length=2, kappa=1.0, kappa0=1.7, mode=1)
@example(n0=1, length=2, kappa=1.0, kappa0=1.7, mode=4)
# odd central size (the sqrt(2) middle bond of the even sector) and even
# central size (the -+kappa fold on the last diagonal entry)
@example(n0=2, length=5, kappa=1.0, kappa0=1.3, mode=9)
@example(n0=2, length=4, kappa=1.3, kappa0=1.0, mode=8)
# the edges of the hopping ratio, modes 1 and lambda, and the sweep's
# largest block
@example(n0=3, length=40, kappa=1.0, kappa0=0.15, mode=1)
@example(n0=3, length=41, kappa=1.0, kappa0=10.0, mode=47)
@example(n0=5, length=1000, kappa=1.0, kappa0=3.3248, mode=1010)
@settings(max_examples=40, deadline=None)
def test_eigenpair_is_the_dense_eigenpair_of_the_chain_sector(n0, length, kappa, kappa0, mode):
    mode = 1 + (mode - 1) % (2 * n0 + length)
    diagonal, off_diagonal, block, column = chain_sector(n0, length, kappa, kappa0, mode)
    energy, vector = tridiagonal_eigenpair(diagonal, off_diagonal, column)
    dense, dense_energy, bound = mode_gap_bound(block, column, energy, vector)
    assert abs(energy - dense_energy) <= energy_bound(diagonal, off_diagonal, energy)
    assert np.max(np.abs(vector - dense)) <= bound
    assert vector[np.argmax(np.abs(vector))] > 0


@given(diagonal=st.lists(st.floats(-3, 3), min_size=1, max_size=40),
       couplings=st.lists(st.floats(-3, 3) | st.just(0.0), min_size=40, max_size=40),
       index=st.integers(0, 39))
@settings(max_examples=60, deadline=None)
def test_every_eigenvalue_of_a_random_tridiagonal_matrix(diagonal, couplings, index):
    # zero couplings split the matrix, so its eigenvalues may repeat: only
    # the energy is compared; the call certifies its own residual
    n = len(diagonal)
    a, b = np.array(diagonal), np.array(couplings[:n - 1])
    index %= n
    energy, vector = tridiagonal_eigenpair(a, b, index)
    expected = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))[index]
    assert abs(energy - expected) <= energy_bound(a, b, energy)
    assert abs(vector @ vector - 1) <= gamma(2 * n + 4)


@pytest.mark.parametrize("diagonal, off_diagonal, index", [
    ([1.0, 2.0], [0.5, 0.5], 0),           # one off-diagonal entry too many
    ([], [], 0),                           # no entries
    ([[1.0]], [], 0),                      # not a vector
    ([1.0, np.nan], [0.5], 0),             # not finite
    ([1.0, 2.0], [np.inf], 1),
    ([1.0, 2.0], [0.5], 2),                # index out of range
    ([1.0, 2.0], [0.5], -1),
    ([1.0, 2.0], [0.5], True),             # not an integer
    ([1.0, 2.0], [0.5], 1.0),
])
def test_eigenpair_refuses_input_that_does_not_fit(diagonal, off_diagonal, index):
    with pytest.raises(ValueError):
        tridiagonal_eigenpair(diagonal, off_diagonal, index)


def test_a_wrong_vector_fails_the_residual_certificate(monkeypatch):
    # the vector of the neighbouring eigenvalue: unit norm, but no
    # eigenvector at this energy
    a, b = np.zeros(7), np.full(6, -1.0)
    neighbour = tridiagonal_eigenpair(a, b, 4)[1]
    inverse_iteration = spectra._inverse_iteration

    def wrong(*args):
        _, ratio, phi = inverse_iteration(*args)
        return neighbour, ratio, phi

    monkeypatch.setattr(spectra, "_inverse_iteration", wrong)
    with pytest.raises(ArithmeticError, match="misses T z = E z"):
        tridiagonal_eigenpair(a, b, 3)


def test_the_eigenvalue_zero_with_exact_zero_amplitudes():
    # bound --n0 4 --len 7 --kappa0 3.233 --long-time 8: its mode has E = 0
    # exactly and vanishes on every other site of its odd sector, so the
    # computed vector is within Davis-Kahan's (pi / sqrt(2)) r / gap of 0
    # there
    diagonal, off_diagonal, block, column = chain_sector(4, 7, 1.0, 3.233, 8)
    energy, vector = tridiagonal_eigenpair(diagonal, off_diagonal, column)
    assert abs(energy) <= energy_bound(diagonal, off_diagonal, energy)
    gap = np.min(np.abs(np.delete(np.linalg.eigvalsh(block), column)))
    assert np.max(np.abs(vector[1::2])) <= 2.5 * residual(block, energy, vector) / gap


@pytest.mark.parametrize("n0, length, kappa0, mode", [(2, 4, 1.7, 3), (4, 7, 3.233, 8),
                                                      (5, 1000, 3.3248, 418)])
def test_long_time_survival_never_calls_eigh(monkeypatch, n0, length, kappa0, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("long_time_survival called eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    report = long_time_survival(n0, length, 1.0, kappa0, mode)
    assert 0.0 <= report.p_infinity <= 1.0


@pytest.mark.parametrize("n0, length, kappa, kappa0, mode", [
    (2, 4, 1.0, 1.7, 3), (4, 7, 1.0, 3.233, 8), (5, 1000, 1.0, 3.3248, 418),
    (1, 123, 1.0, 0.15, 62), (3, 41, 1.0, 1.7, 1), (3, 41, 1.0, 1.7, 47),
    (2, 5, 1.3, 10.0, 9), (2, 4, 1.0, 1.0, 2),
])
def test_long_time_survival_matches_the_dense_reference(n0, length, kappa, kappa0, mode):
    states = resonant_bound_states(n0, length, kappa, kappa0) + \
        evanescent_bound_states(n0, length, kappa, kappa0)
    got = long_time_survival(n0, length, kappa, kappa0, mode, states).p_infinity
    expected = dense_long_time_survival(n0, length, kappa, kappa0, mode, states)
    lam = 2 * n0 + length
    # P = psi^T M psi with ||M|| <= 1 (the bound states' central parts, each
    # weighted by w_b <= 1), so |dP| <= 2 ||d psi||; each overlap rounds by
    # gamma_lam sqrt(w_b), each term by 3 gamma_lam w_b and the sum by
    # gamma_S, on both sides
    rounding = 2 * (3 * gamma(lam) * len(states) + gamma(len(states) + 2))
    if kappa == kappa0:                 # the same analytic mode on both sides
        assert got == expected
        return
    diagonal, off_diagonal, block, column = chain_sector(n0, length, kappa, kappa0, mode)
    energy, vector = tridiagonal_eigenpair(diagonal, off_diagonal, column)
    _, _, bound = mode_gap_bound(block, column, energy, vector)
    assert abs(got - expected) <= 2 * bound + rounding


@pytest.mark.parametrize("mode", [True, False, 2.0, np.float64(3.0), 1.5, "2", None])
@pytest.mark.parametrize("kappa0", [1.0, 1.7])
def test_long_time_survival_refuses_a_mode_that_is_not_an_integer(mode, kappa0):
    with pytest.raises(ValueError, match="mode must be an integer"):
        long_time_survival(2, 4, 1.0, kappa0, mode)


def test_long_time_survival_reports_a_numpy_mode_as_an_int():
    report = long_time_survival(2, 4, 1.0, 1.7, np.int64(3))
    assert type(report.mode) is int and report.mode == 3


def test_bound_long_time_past_the_dense_size_cap(tmp_path):
    # a 20,002-site central chain: its mode's sector block has 10,001 sites,
    # beyond DEFAULT_SIZE_CAP, which the dense eigensolve refused (exit 4)
    out = tmp_path / "b.json"
    assert main(["bound", "--n0", "1", "--len", "20000", "--kappa0", "1.5",
                 "--long-time", "5", "--out", str(out)]) == 0
    p_infinity = json.loads(out.read_text())["long_time"]["p_infinity"]
    assert 0.0 <= p_infinity <= 1.0
