"""Claims that must be able to FAIL: each runs on a wrong table patched
into the table cache, and on the shipped one.  No shipped file is
edited."""

from fractions import Fraction

import pytest

from heiscert import heis
from heiscert.certs import FAIL, PASS
from heiscert.heis import ENTRY_RING, HeisElement, Representation, \
    get_representation
from heiscert.linalg import Matrix
from heiscert.suites import CLAIMS, CLAIMS_BY_ID, RunConfig, _guarded

JORDAN_CLAIMS = ("jordan.center_case", "jordan.unique_odd_largest")

_A, _B, _C = ENTRY_RING.vars("a", "b", "c")

THETA_KILLS = {"reps.homomorphism.theta", "orbit.formula",
               "orbit.equivariance", "restrict.conjugate_to_theta"}

# (table, 1-based row, column, what is added to the shipped entry) and
# the exact set of claims that FAIL at seed 0 with that one entry wrong.
# rho6 (2,5) + c loads, yet leaves cone.parabolic_fixed_points and
# cone.boundary_flat at PASS: both read only the generators' images, and
# the added c is 0 at A and B and leaves C's top nilpotent power, hence
# its fixed form, unchanged.  That blind spot is pinned as it stands.
KILL_MATRIX = [
    (("theta", 1, 10, _C ** 2), THETA_KILLS),              # c^2 -> 2c^2
    (("theta", 2, 10, _A), THETA_KILLS),                    # + a
    (("theta", 6, 10, _A), THETA_KILLS),                    # a -> 2a
    (("rho6", 2, 5, _C),                                    # ab + c -> ab + 2c
     {"reps.homomorphism.rho6", "cone.sym_square_match",
      "cone.pd_preserved"}),
    (("rho14", 1, 10, _A ** 4 * Fraction(1, 24)),          # a^4/24 -> a^4/12
     {"reps.homomorphism.rho14", "restrict.conjugate_to_theta"}),
]


# Faithful representations that are not the paper's theta, and the exact
# seed-0 FAIL set of each.
FAITHFUL_KILLS = {"reps.injectivity.theta", "orbit.formula",
                  "orbit.equivariance", "restrict.conjugate_to_theta"}


def _theta_after_automorphism() -> Representation:
    """theta o phi for the automorphism phi(a, b, c) = (2a, b, 2c): the
    table at the symbolic element phi(a, b, c)."""
    theta = get_representation("theta")
    return Representation("theta", 10,
                          theta(HeisElement(2 * _A, _B, 2 * _C)))


def _theta_conjugated_by_diagonal() -> Representation:
    """D theta D^-1 for D = diag(1, 2, 1, ..., 1, 3): entry (i, j)
    scaled by D_i / D_j."""
    scales = [1, 2, *[1] * 7, 3]
    table = get_representation("theta").table
    return Representation("theta", 10, Matrix(
        [[x * Fraction(scales[i], scales[j]) for j, x in enumerate(row)]
         for i, row in enumerate(table.entries)]))


def _verdicts(claim_ids) -> dict:
    config = RunConfig(seed=0)
    return {c: CLAIMS_BY_ID[c].run(config).verdict for c in claim_ids}


def _failing_claims() -> set:
    """The ids of the claims that FAIL at seed 0, run as in a run; none
    may FAIL by crashing, so each FAIL carries its own witnesses, not a
    traceback."""
    config = RunConfig(seed=0)
    certificates = [_guarded(c, c.run, config) for c in CLAIMS]
    assert [c.claim for c in certificates if "error" in c.witnesses] == []
    return {c.claim for c in certificates if c.verdict == FAIL}


def _mutant(name: str, row: int, col: int, delta) -> Representation:
    """The shipped table name with delta added to its (row, col) entry."""
    shipped = get_representation(name)
    entries = [list(r) for r in shipped.table.entries]
    entries[row - 1][col - 1] = entries[row - 1][col - 1] + delta
    return Representation(name, shipped.dimension, Matrix(entries))


def test_jordan_claims_fail_on_the_identity_table(monkeypatch):
    """The identity table loads (it is unit upper triangular) and is a
    homomorphism, but every element's image is I: its partitions are
    all [1] * 10, so neither Jordan claim may PASS on it."""
    assert _verdicts(JORDAN_CLAIMS) == dict.fromkeys(JORDAN_CLAIMS, PASS)
    one, zero = ENTRY_RING.one(), ENTRY_RING.zero()
    identity = Matrix([[one if i == j else zero for j in range(10)]
                       for i in range(10)])
    monkeypatch.setitem(heis._CACHE, "theta",
                        Representation("theta", 10, identity))
    assert _verdicts(JORDAN_CLAIMS) == dict.fromkeys(JORDAN_CLAIMS, FAIL)


def test_no_claim_fails_on_the_shipped_tables():
    assert _failing_claims() == set()


@pytest.mark.parametrize("mutation, kills", KILL_MATRIX,
                         ids=[f"{m[0]}-{m[1]}-{m[2]}" for m, _ in KILL_MATRIX])
def test_kill_matrix_pins_the_exact_fail_set(monkeypatch, mutation, kills):
    name = mutation[0]
    monkeypatch.setitem(heis._CACHE, name, _mutant(*mutation))
    assert _failing_claims() == kills


@pytest.mark.parametrize("build", [_theta_after_automorphism,
                                   _theta_conjugated_by_diagonal])
def test_faithful_twins_of_theta_pin_the_exact_fail_set(monkeypatch, build):
    monkeypatch.setitem(heis._CACHE, "theta", build())
    assert _failing_claims() == FAITHFUL_KILLS


def test_rho14_mutant_fails_the_restriction_with_its_checks(monkeypatch):
    """The symbolic recheck of the intertwiner kernel fails on the
    rho14 (1,10) mutant: the claim FAILs with its checks dict, no
    crash, and the checks name what broke."""
    monkeypatch.setitem(heis._CACHE, "rho14",
                        _mutant("rho14", 1, 10, _A ** 4 * Fraction(1, 24)))
    certificate = CLAIMS_BY_ID["restrict.conjugate_to_theta"].run(
        RunConfig(seed=0))
    assert certificate.verdict == FAIL
    witnesses = certificate.witnesses
    assert "error" not in witnesses
    assert witnesses["intertwiner_space_dimension"] is None
    assert {key for key, ok in witnesses["checks"].items() if not ok} == \
        {"conjugate_to_theta", "induced_multiplicative"}


def test_restriction_reads_the_table_in_force_at_each_run(monkeypatch):
    """restrict.conjugate_to_theta on the shipped rho14, then on the
    (1,10) mutant, then on the shipped table again, with nothing
    cleared between runs: each run reads the table then in force."""
    claim = CLAIMS_BY_ID["restrict.conjugate_to_theta"]
    shipped = get_representation("rho14")
    verdicts = [claim.run(RunConfig(seed=0)).verdict]
    monkeypatch.setitem(heis._CACHE, "rho14",
                        _mutant("rho14", 1, 10, _A ** 4 * Fraction(1, 24)))
    verdicts.append(claim.run(RunConfig(seed=0)).verdict)
    monkeypatch.setitem(heis._CACHE, "rho14", shipped)
    verdicts.append(claim.run(RunConfig(seed=0)).verdict)
    assert verdicts == [PASS, FAIL, PASS]


def test_a_constant_off_the_diagonal_does_not_load():
    """rho6 (2,5) plus 1 is not I at the identity, so the loader refuses
    it: every claim that reads rho6 would crash rather than run on it."""
    with pytest.raises(ValueError, match="table at the identity is not I"):
        _mutant("rho6", 2, 5, 1)
