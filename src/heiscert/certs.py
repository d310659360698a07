"""Replayable verdict records.

A Certificate stores one claim's verdict together with the exact
witnesses that support it and the inputs (plus generator seed) needed to
recompute it from scratch.  Serialization is canonical JSON - sorted
keys, fixed separators, rationals as "p/q" strings - so identical runs
produce byte-identical files and any edit is detectable through the
inputs digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .rationals import format_rational

PASS = "PASS"
FAIL = "FAIL"


def jsonable(value: Any) -> Any:
    """Recursively convert exact values into JSON-safe primitives."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, float):
        raise TypeError(f"floats are not allowed in certificates: {value!r}")
    return str(value)


def canonical_json(converted: Any) -> str:
    return json.dumps(converted, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return _sha256(jsonable(data))


def _sha256(converted: Any) -> str:
    """digest() of values jsonable returned, without converting again."""
    return hashlib.sha256(canonical_json(converted).encode()).hexdigest()


@dataclass
class Certificate:
    claim: str
    verdict: str
    witnesses: dict
    inputs: dict = field(default_factory=dict)
    seed: str = ""
    anchor: str = ""
    timestamp: str = ""

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        if not isinstance(data, dict):
            raise ValueError("certificate body is not a JSON object")
        required = {"claim", "verdict", "witnesses", "inputs", "seed",
                    "inputs_digest"}
        missing = required - set(data)
        if missing:
            raise ValueError(f"certificate missing fields {sorted(missing)}")
        for name, kind in (("claim", str), ("inputs", dict),
                           ("witnesses", dict)):
            if not isinstance(data[name], kind):
                raise ValueError(f"certificate field {name!r} has the "
                                 f"wrong type")
        cert = Certificate(
            claim=data["claim"],
            verdict=data["verdict"],
            witnesses=data["witnesses"],
            inputs=data["inputs"],
            seed=data["seed"],
            anchor=data.get("paper_anchor", ""),
            timestamp=data.get("timestamp", ""),
        )
        return cert

    def comparable(self) -> dict:
        """Everything except the timestamp, normalized for equality checks."""
        body = self.to_dict()
        body.pop("timestamp")
        return body
