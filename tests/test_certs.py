"""Certificate serialization: canonical JSON, digests, exactness."""

import json
from fractions import Fraction

import pytest

from heiscert.certs import PASS, Certificate, canonical_json, digest, \
    jsonable


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
