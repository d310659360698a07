"""Invariant subspace of the 14-dimensional action and entry growth."""

import importlib.util
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heiscert import restriction
from heiscert.heis import ENTRY_RING, HeisElement, get_representation, \
    heis_mul, one_parameter_power
from heiscert.linalg import Matrix
from heiscert.poly import PolyRing
from heiscert.restriction import (derive_subspace_basis, growth_certificate,
                                  induced_matrix, intertwiner_dimension,
                                  restriction_certificate,
                                  subspace_equations)

THETA = get_representation("theta")
RHO14 = get_representation("rho14")
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / \
    "rederive_witnesses.py"


@pytest.fixture(scope="module")
def rederive():
    """The regeneration script, loaded by path: it holds the T solve."""
    spec = importlib.util.spec_from_file_location("_rederive_witnesses",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equations_have_rank_four():
    assert subspace_equations().rank() == 4


def test_orbit_point_satisfies_equations():
    base = [Fraction(int(i in (6, 10, 14))) for i in range(1, 15)]
    lift = RHO14(HeisElement.symbolic()).apply(base)
    one = ENTRY_RING.one()
    b = ENTRY_RING.var("b")
    assert lift[5] == one and lift[9] == one and lift[13] == one
    assert lift[4] == b and lift[12] == b
    assert lift[2] == 2 * lift[11]
    assert all(p.is_zero() for p in subspace_equations().apply(lift))


def test_basis_spans_solution_space():
    basis = derive_subspace_basis()
    assert basis.rank() == 10
    assert (subspace_equations() * basis).is_zero()


def test_subspace_is_invariant_symbolically():
    g = HeisElement.symbolic(ENTRY_RING)
    image = RHO14(g) * derive_subspace_basis()
    assert (subspace_equations() * image).is_zero()


def test_induced_action_is_conjugate_to_theta(rederive):
    g = HeisElement.symbolic(ENTRY_RING)
    conjugator = rederive.derive_conjugator()
    assert induced_matrix(g) * conjugator == conjugator * THETA(g)


def test_conjugator_refuses_orbit_lifts_that_do_not_determine_it(
        rederive, monkeypatch):
    """With one orbit coordinate repeated, the rref of [A^T | Y^T] misses
    a pivot among the first ten columns, so no T is returned."""
    lift = rederive.ORBIT_LIFT
    monkeypatch.setattr(rederive, "ORBIT_LIFT", lift[:-1] + lift[-2:-1])
    with pytest.raises(ValueError, match="do not determine T"):
        rederive.derive_conjugator()


def test_conjugator_shape(rederive):
    t = rederive.derive_conjugator()
    assert t.det() == -2
    # one scaled entry, otherwise a permutation matrix
    entries = sorted(abs(x) for row in t.entries for x in row if x != 0)
    assert entries == [1] * 9 + [2]


def test_matrix_text_round_trip(rederive):
    m = Matrix([[Fraction(1, 2), Fraction(-3)], [Fraction(0), Fraction(7, 5)]])
    assert Matrix.from_text(rederive.to_text(m)) == m


def test_induced_action_is_multiplicative():
    ring = PolyRing("a", "b", "c", "a'", "b'", "c'")
    g = HeisElement.symbolic(ring, ("a", "b", "c"))
    h = HeisElement.symbolic(ring, ("a'", "b'", "c'"))
    assert induced_matrix(g) * induced_matrix(h) == \
        induced_matrix(heis_mul(g, h))


def test_rederive_witnesses_script_check():
    # Covers the subspace witnesses and both frozen orbit samples.
    result = subprocess.run([sys.executable, str(SCRIPT), "--check"],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all frozen files match their derivations" in result.stdout


def test_restriction_certificate_passes():
    ok, witnesses = restriction_certificate()
    assert ok
    assert all(witnesses["checks"].values())


def test_intertwiner_space_dimension():
    # larger than 1: the conjugator is canonical only through the
    # orbit-matching construction, not by Schur-style uniqueness
    assert intertwiner_dimension() == 9


def test_intertwiner_kernel_is_reverified_symbolically(monkeypatch):
    # The identity does not intertwine the induced action with theta.
    identity = [int(k % 11 == 0) for k in range(100)]
    monkeypatch.setattr(restriction, "integer_kernel", lambda rows: [identity])
    assert intertwiner_dimension() is None


def test_growth_certificate():
    ok, witnesses = growth_certificate()
    assert ok
    assert witnesses["A"] == {"six_block_degree": 2,
                              "added_blocks_degree": 4}
    assert witnesses["B"] == {"six_block_degree": 2,
                              "added_blocks_degree": 4}
    assert witnesses["C"]["whole_matrix_degree"] <= 2


def test_growth_quartic_entry_location():
    ring = PolyRing("n")
    power = one_parameter_power(RHO14, "A", ring)
    n = ring.var("n")
    assert power[0, 9] == n ** 4 * Fraction(1, 24)
    six_block_degrees = [power[i, j].degree_in("n")
                         for i in range(6) for j in range(6)
                         if not power[i, j].is_zero()]
    assert max(six_block_degrees) == 2


def test_growth_degrees_stable_under_rescaling():
    ring = PolyRing("n")
    n = ring.var("n")
    zero = ring.zero()
    for scale in (Fraction(2), Fraction(-1), Fraction(3, 7)):
        scaled = RHO14(HeisElement(scale * n, zero, zero))
        plain = RHO14(HeisElement(n, zero, zero))
        for i in range(14):
            for j in range(14):
                assert scaled[i, j].degree_in("n") == \
                    plain[i, j].degree_in("n")
