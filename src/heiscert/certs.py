"""Replayable verdict records.

A Certificate stores one claim's verdict together with the exact
witnesses that support it and the inputs (plus generator seed) needed to
recompute it from scratch.  Serialization is canonical JSON - sorted
keys, fixed separators, rationals as "p/q" strings - so identical runs
produce byte-identical files and any edit is detectable through the
inputs digest.  jsonable dispatches on exact types and refuses unknown
ones, and any dict key that is not a str; to_json joins each container's
text once, giving the bytes of json.dumps(sort_keys=True, indent=2).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .poly import Poly

PASS = "PASS"
FAIL = "FAIL"


def jsonable(value: Any) -> Any:
    """Recursively convert exact values into JSON-safe primitives.  A
    Poly is written as str(p); any other type outside the JSON ones and
    Fraction, floats included, raises TypeError, and so does a dict key
    that is not a str (json.dumps would write True as "true", str() as
    "True")."""
    kind = type(value)
    if kind is Fraction:
        return str(value)
    if kind is int or kind is str or kind is bool or value is None:
        return value
    if kind is list or kind is tuple:
        return [jsonable(v) for v in value]
    if kind is dict:
        if not all(type(k) is str for k in value):
            raise TypeError("cannot write a key that is not a str into a "
                            "certificate")
        return {k: jsonable(v) for k, v in value.items()}
    if kind is Poly:
        return str(value)
    raise TypeError(f"cannot write a {kind.__name__} into a certificate")


def _indented(value: Any, newline: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) of what jsonable
    returns, one join per container; newline is the line break plus the
    indentation of the line value starts on."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join(
            [_indented(v, inner) for v in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _indented(value[k], inner)
             for k in sorted(value)]) + newline + "}"
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not JSON: {value!r}")


def canonical_json(converted: Any) -> str:
    return json.dumps(converted, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return _sha256(jsonable(data))


def _sha256(converted: Any) -> str:
    """digest() of values jsonable returned, without converting again."""
    return hashlib.sha256(canonical_json(converted).encode()).hexdigest()


class Certificate:
    def __init__(self, claim: str, verdict: str, witnesses: dict,
                 inputs: dict = None, seed: str = "", anchor: str = "",
                 timestamp: str = ""):
        self.claim = claim
        self.verdict = verdict
        self.witnesses = witnesses
        # Each certificate without inputs gets its own empty dict.
        self.inputs = {} if inputs is None else inputs
        self.seed = seed
        self.anchor = anchor
        self.timestamp = timestamp

    def to_dict(self) -> dict:
        inputs = jsonable(self.inputs)
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "witnesses": jsonable(self.witnesses),
            "inputs": inputs,
            "seed": self.seed,
            "inputs_digest": _sha256(inputs),
            "paper_anchor": self.anchor,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return _indented(self.to_dict(), "\n") + "\n"

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise ValueError("certificate body is not a JSON object")
        required = {"claim", "verdict", "witnesses", "inputs", "seed",
                    "inputs_digest"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"certificate missing fields {sorted(missing)}")
        for name, kind in (("claim", str), ("verdict", str), ("seed", str),
                           ("inputs_digest", str), ("paper_anchor", str),
                           ("timestamp", str), ("inputs", dict),
                           ("witnesses", dict)):
            if name in data and not isinstance(data[name], kind):
                raise ValueError(f"certificate field {name!r} has the "
                                 f"wrong type")
        return Certificate(
            claim=data["claim"],
            verdict=data["verdict"],
            witnesses=data["witnesses"],
            inputs=data["inputs"],
            seed=data["seed"],
            anchor=data.get("paper_anchor", ""),
            timestamp=data.get("timestamp", ""),
        )

    def comparable(self) -> dict:
        """Everything except the timestamp, normalized for equality checks."""
        body = self.to_dict()
        body.pop("timestamp")
        return body
