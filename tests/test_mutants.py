"""Claims that must be able to FAIL: each runs on a wrong table patched
into the table cache, and on the shipped one.  No shipped file is
edited."""

from heiscert import heis
from heiscert.certs import FAIL, PASS
from heiscert.heis import ENTRY_RING, Representation
from heiscert.linalg import Matrix
from heiscert.suites import CLAIMS_BY_ID, RunConfig

JORDAN_CLAIMS = ("jordan.center_case", "jordan.unique_odd_largest")


def _verdicts(claim_ids) -> dict:
    config = RunConfig(seed=0)
    return {c: CLAIMS_BY_ID[c].run(config).verdict for c in claim_ids}


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
