"""Replayable verdict records.

A Certificate stores one claim's verdict together with the exact
witnesses that support it and the inputs (plus generator seed) needed to
recompute it from scratch.  Serialization is canonical JSON - sorted
keys, fixed separators, rationals as "p/q" strings - so identical runs
produce byte-identical files and any edit is detectable through the
inputs digest.  One writer, _json_text, converts exact values as it
writes them and gives both to_json's indented bytes and the compact
canonical text.  reproduced_by compares a stored body with a recomputed
one as canonical JSON text, and writes the stored body only when they
differ.
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


def _json_text(value: Any, newline: str) -> str:
    """The JSON text of an exact value: json.dumps(sort_keys=True,
    indent=2) of it, newline being the line break plus the indentation
    of the line value starts on, or with newline "" the compact
    canonical text, separators (",", ":").  A Fraction or a Poly is
    written as its str and a tuple as a list; any other type outside the
    JSON ones, floats included, raises TypeError, and so does a dict key
    that is not a str (json.dumps would write True as "true", str() as
    "True")."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Fraction or kind is Poly:
        return encode_basestring_ascii(str(value))
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline and newline + "  "
        return "[" + inner + ("," + inner).join(
            [_json_text(v, inner) for v in value]) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(k) is str for k in value):
            raise TypeError("cannot write a key that is not a str into a "
                            "certificate")
        inner = newline and newline + "  "
        colon = ": " if newline else ":"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + colon + _json_text(value[k], inner)
             for k in sorted(value)]) + newline + "}"
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"cannot write a {kind.__name__} into a certificate")


def canonical_json(parsed: Any) -> str:
    return json.dumps(parsed, sort_keys=True, separators=(",", ":"))


def digest(data: Any) -> str:
    return _sha256(_json_text(data, ""))


def _sha256(text: str) -> str:
    """The digest of a value whose canonical JSON text is text."""
    return hashlib.sha256(text.encode()).hexdigest()


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

    def _body(self) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "inputs": self.inputs,
            "seed": self.seed,
            "inputs_digest": _sha256(_json_text(self.inputs, "")),
            "paper_anchor": self.anchor,
            "timestamp": self.timestamp,
        }

    def to_dict(self) -> dict:
        return json.loads(_json_text(self._body(), ""))

    def to_json(self) -> str:
        return _json_text(self._body(), "\n") + "\n"

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

    def reproduced_by(self, recomputed: "Certificate",
                      inputs_digest: str) -> tuple[bool, bool]:
        """(same, digest_intact) of this certificate, parsed from a file
        whose inputs_digest field is given, against a recomputed one: same
        iff the digest is intact and the comparable() bodies are equal as
        JSON text, so a stored 1 differs from a recomputed True.  Each
        side's inputs and witnesses are written as canonical JSON once,
        the stored side by json.dumps; a stored body that differs is then
        written by the certificate writer, and one it refuses (a float,
        nesting too deep) raises ValueError."""
        inputs = _json_text(recomputed.inputs, "")
        witnesses = _json_text(recomputed.witnesses, "")
        try:
            stored_inputs = canonical_json(self.inputs)
            digest_ok = _sha256(stored_inputs) == inputs_digest
            same = (digest_ok and stored_inputs == inputs
                    and canonical_json(self.witnesses) == witnesses
                    and (self.claim, self.verdict, self.seed, self.anchor)
                    == (recomputed.claim, recomputed.verdict,
                        recomputed.seed, recomputed.anchor))
            if not same:
                self.to_json()
        except (TypeError, RecursionError) as exc:
            raise ValueError(f"malformed stored certificate for "
                             f"{self.claim}: {exc}") from exc
        return same, digest_ok
