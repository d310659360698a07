"""Certificate serialization: canonical JSON, digests, exactness."""

import hashlib
import json
from fractions import Fraction

import pytest

from heiscert.certs import PASS, Certificate, canonical_json, digest, \
    jsonable
from heiscert.suites import RunConfig, run_suite

# SHA-256 of the seed-0 certificates' comparable() bodies, sorted by claim;
# a change that alters any certificate byte (timestamps aside) moves it.
SEED0_CERTIFICATES_SHA256 = (
    "95bf03d27385f8d2ba9bb5922a46c913b546d100e5a6304fa31d3feed02e65a6")


def test_fractions_serialize_as_strings():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(-4)) == "-4"
    assert jsonable({"x": [Fraction(1, 3), 2]}) == {"x": ["1/3", 2]}


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        jsonable({"bad": 0.5})


def test_canonical_json_is_order_insensitive():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


def test_digest_tracks_inputs():
    assert digest({"x": 1}) != digest({"x": 2})
    assert digest({"x": Fraction(1, 2)}) == digest({"x": Fraction(2, 4)})


def test_certificate_round_trip():
    cert = Certificate("demo.claim", PASS, {"value": Fraction(5, 3)},
                       inputs={"n": 3}, seed="0")
    cert.anchor = "a demonstration claim"
    cert.timestamp = "2020-01-01T00:00:00"
    data = json.loads(cert.to_json())
    again = Certificate.from_dict(data)
    assert again.comparable() == cert.comparable()
    assert data["paper_anchor"] == "a demonstration claim"
    assert data["inputs_digest"] == cert.inputs_digest()


def test_comparable_strips_timestamp():
    a = Certificate("demo", PASS, {})
    b = Certificate("demo", PASS, {})
    a.timestamp = "1"
    b.timestamp = "2"
    assert a.comparable() == b.comparable()


def test_missing_fields_rejected():
    with pytest.raises(ValueError):
        Certificate.from_dict({"claim": "x", "verdict": "PASS"})


def test_seed0_certificates_are_pinned(tmp_path):
    report = run_suite(RunConfig(seed=0, output_dir=tmp_path))
    body = [Certificate.from_dict(
                json.loads((tmp_path / row["file"]).read_text())).comparable()
            for row in sorted(report["claims"], key=lambda r: r["claim"])]
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(encoded.encode()).hexdigest() == \
        SEED0_CERTIFICATES_SHA256
