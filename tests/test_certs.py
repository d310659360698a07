"""Certificate serialization: canonical JSON, digests, exactness."""

import hashlib
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert.certs import PASS, Certificate, _indented, canonical_json, \
    digest, jsonable
from heiscert.cone import SymForm, form_from_coordinates
from heiscert.convexity import OrbitSample, limit_point_certificate
from heiscert.linalg import Matrix
from heiscert.lp import solve_equality_feasibility
from heiscert.metric import Halfspace, box, cross_ratio, \
    hilbert_log_argument
from heiscert.poly import PolyRing
from heiscert.rationals import format_rational
from heiscert.suites import CLAIMS, CLAIMS_BY_ID, DEFAULT_SAMPLE_SIZES, \
    RunConfig, run_suite

# SHA-256 of each seed-0 certificate's comparable() body, by claim; a change
# that alters any certificate byte (timestamps aside) moves that claim's pin.
SEED0_CERTIFICATE_SHA256 = {
    "cone.boundary_flat":
        "d52e72f08e09067de486405708b0944a9a1b9e4d3262f6e99a71bbe04ef11449",
    "cone.parabolic_fixed_points":
        "316101d826e8a06ae7ccca244d596cbef6b3065b8c8d8d0d2fc21a191bd9112a",
    "cone.pd_preserved":
        "7d2df1e1eff8396a26ff8054f9c1c158aa91b9471b12f9cd159b085a2006500c",
    "cone.sym_square_match":
        "6bc5ba7f8d8502941fc2675aef4e3d1cc0727522c4c69079cc12b94cda6eb015",
    "growth.block_degrees":
        "ce20ee43ef1f093b1ff3cb996e434f565f9f913c5bd948bfde52629ff5d4cf33",
    "hilbert.cross_ratio_invariance":
        "7e75becd57a4a85babfd5491a58e5fcf7dc1ec5201d581075b9f4409051bf654",
    "hilbert.metric_axioms":
        "33779fe10714328791782ecf1788cb5eefe04c12b2196b7dd1d6e184e1496817",
    "hull.degenerate_center":
        "578a2a049daaf70888b26405ec64aa2ca426155c06928bf073b2f3c7758610f0",
    "hull.dimension":
        "9589fa4f1069a983f20c4458e9ccb0da7749854fb2ae51d5168559aba11c6436",
    "hull.extreme_points":
        "572eb53936207c75b6618c6521ab05ea3cd23834b8c322e67755682266a702c1",
    "hull.proper_convexity":
        "e944b8b78b0102914a8a8630a17cc08fed87c8b813b862a48e6f1cda1b4773ba",
    "jordan.center_case":
        "03f85fbba6a60fad6dc6ce34c77f0bac333a7db465f65257c628c1540b98a9c9",
    "jordan.unique_odd_largest":
        "741ac8a23b42dfe42c86bf7182a8ff400448e6b550f1ca81e8a69026c1a2d370",
    "orbit.equivariance":
        "904473bb530a4faf5cbd9597e9cfbe8ba4466079a8ded58b5f17a6a54c150517",
    "orbit.fixed_at_infinity":
        "fca8edb060af621220e00ddeb09280c36b80426b8ea2007444082bd79c502081",
    "orbit.formula":
        "d41badb32139dedeaec428abe446052c3381a12de351366f57be6de31eceec14",
    "orbit.limit_point":
        "3a98fd111e092b15bf2eb61ead3d1988fd0a25ddbf8db141c29fde4069b25407",
    "reps.homomorphism.rho14":
        "dc68e347ff0af8e3124bca8bbf123f5f7f055d6932d617464fb93dfb38f22ea0",
    "reps.homomorphism.rho6":
        "8e91c335b7da9c6acd18fdf95408738116cb52bf876ed7429786d4d74b916f31",
    "reps.homomorphism.theta":
        "4f37a303c5cda63ceb3914cea9df651b67b62b16b0979b89108d8adb537d3846",
    "reps.injectivity.rho6":
        "0cf06d378fa3a806d4c0b100a60e47b7a7270088927450074d642470f9833752",
    "reps.injectivity.theta":
        "381eedf56d841777f40117b1541b0c92125403f83628220576b3aa2e75a35c0a",
    "restrict.conjugate_to_theta":
        "a1cb6c5e5ed8dd8f8cb7ce8534c49bc4e3d287c024aaa7300a6660c53a658f12",
}

# The same hash for the six sampled claims at seed 23: their draws depend
# on the seed, so a change to the sampling code that keeps seed 0 but
# moves another seed's draws moves these.
SEED23_SAMPLED_CERTIFICATE_SHA256 = {
    "cone.pd_preserved":
        "2821357363e936fd3aeac8b90d3d47c8b0e28ea0c5d6d0b3ce3be7eaf3b3f260",
    "hilbert.cross_ratio_invariance":
        "6fb04c6b61acca9f3d8f1665b12bf4de78458d70c480a771600affb78c8cfbd5",
    "hilbert.metric_axioms":
        "f837499b4f50162e713e639806449d5fb157cf8cb0b3b15a8ca046258781d1af",
    "hull.dimension":
        "99ffceaa5b002a47b332cac49c7385b2f78ca6ee48a8a1a034537d24741c07a7",
    "jordan.unique_odd_largest":
        "0e1387ebe47b78f0c1b665e17cd8e4f1a941b9a979e772b20e38af2674bdfcf3",
    "orbit.equivariance":
        "0ec4b45bbfad927309f2aee696ff3688a8668fbc4a40a785665be45175250947",
}


def test_fractions_serialize_as_strings():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(Fraction(-4)) == "-4"
    assert jsonable({"x": [Fraction(1, 3), 2]}) == {"x": ["1/3", 2]}


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30),
       st.booleans())
def test_fractions_are_written_as_p_over_q(num, den, integral):
    """jsonable and format_rational write n/d, or n when d = 1, with
    negative and integral values drawn alike."""
    value = Fraction(num) if integral else Fraction(num, den)
    n, d = value.numerator, value.denominator
    spelled = str(n) if d == 1 else f"{n}/{d}"
    assert jsonable(value) == format_rational(value) == spelled


def test_floats_are_rejected():
    # Serialization, the wire format and exact elimination all refuse
    # inexact values (and bool, which is an int subclass).
    for convert in (lambda: jsonable({"bad": 0.5}),
                    lambda: format_rational(0.1),
                    lambda: Matrix([[0.5]]).rank(),
                    lambda: Matrix([[True]]).rank()):
        with pytest.raises(TypeError):
            convert()


@pytest.mark.parametrize("value", [{1, 2}, object(), 0.5],
                         ids=["set", "object", "float"])
def test_jsonable_refuses_unknown_types(value):
    # A set would be written in hash order, so its bytes could change
    # from run to run.
    with pytest.raises(TypeError):
        jsonable({"x": [value]})


@pytest.mark.parametrize("key", [0.5, True, 1, (1, 2), None],
                         ids=["float", "bool", "int", "tuple", "none"])
def test_jsonable_refuses_non_str_keys(key):
    # str() would write a float key as "0.5", True as "True" where
    # json.dumps writes "true", and a tuple as "(1, 2)".
    with pytest.raises(TypeError, match="key"):
        jsonable({"x": {key: 1}})


def test_jsonable_writes_poly_as_text():
    p = PolyRing("a", "b").parse("3/2*a^2*b - b + 1")
    assert jsonable({"p": (p,)}) == {"p": [str(p)]}


# Quotes, backslashes, control and non-ASCII characters always among the
# draws, and surrogates allowed in the rest.
json_text = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('"\\\n\t\x00\x1f\x7fé☃\U0001f600'),
                    max_size=6)
json_trees = st.recursive(
    st.none() | st.booleans() | json_text
    | st.integers(-2 ** 70, 2 ** 70) | st.integers(min_value=2 ** 64),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_text, children, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_trees)
def test_writer_matches_json_dumps(tree):
    assert _indented(tree, "\n") == json.dumps(tree, sort_keys=True,
                                               indent=2)


def _recorded_serial_run(seed, out, monkeypatch) -> list:
    """(certificate, text) for each certificate a run in this process
    writes to out, as to_json gave them."""
    written = []
    to_json = Certificate.to_json

    def recording(cert):
        written.append((cert, to_json(cert)))
        return written[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(Certificate, "to_json", recording)
        run_suite(RunConfig(seed=seed, output_dir=out))
    assert len(written) == len(CLAIMS)
    return written


@pytest.mark.parametrize("seed", [0, 5])
def test_certificates_are_written_as_json_dumps_writes_them(
        seed, tmp_path, monkeypatch, serial):
    for cert, text in _recorded_serial_run(seed, tmp_path, monkeypatch):
        assert text == json.dumps(cert.to_dict(), sort_keys=True,
                                  indent=2) + "\n"
        assert (tmp_path / f"{cert.claim}.json").read_text() == text


@pytest.mark.parametrize("seed", [0, 5])
def test_pooled_certificates_are_written_as_json_dumps_writes_them(
        seed, tmp_path, monkeypatch, pooled):
    # Workers write in other processes, so their to_json cannot be
    # recorded here: each file is read back and checked instead.
    run_suite(RunConfig(seed=seed, output_dir=tmp_path / "pooled"))
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        written = _recorded_serial_run(seed, tmp_path / "serial", patch)
    for cert, _ in written:
        text = (tmp_path / "pooled" / f"{cert.claim}.json").read_text()
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert Certificate.from_dict(data).comparable() == cert.comparable()


HALF = Fraction(1, 2)
UNIT_BOX = box([-1], [1])
RATIONAL_ENTRY_POINTS = {
    "SymForm": lambda v: SymForm([[v, 0, 0], [0, 1, 0], [0, 0, 1]]),
    "form_from_coordinates": lambda v: form_from_coordinates([v, 0, 1, 0,
                                                               0, 1]),
    "cross_ratio": lambda v: cross_ratio([1, 0], [0, 1], [1, 1], [1, v]),
    "Halfspace": lambda v: Halfspace([v], 1),
    "Halfspace.bound": lambda v: Halfspace([1], v),
    "box": lambda v: box([-1], [v]),
    "hilbert_log_argument": lambda v: hilbert_log_argument(
        UNIT_BOX, [v], [Fraction(1, 4)]),
    "OrbitSample": lambda v: OrbitSample([(v, 0, 0)]),
    "limit_point_certificate": lambda v: limit_point_certificate(
        t_values=(v, 10, 100)),
}
# The simplex takes int columns over int scales, and refuses any entry
# that is not an int; its exact values are ints.
INT_ENTRY_POINTS = {
    "solve_equality_feasibility": lambda v: solve_equality_feasibility(
        [([v], 1), ([1], 1)]),
    "solve_equality_feasibility.rhs": lambda v: solve_equality_feasibility(
        [([1], 1), ([v], 1)]),
}
ENTRY_POINTS = {**RATIONAL_ENTRY_POINTS, **INT_ENTRY_POINTS}


@pytest.mark.parametrize("value", [0.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rational_entry_points_refuse_floats_and_bools(entry, value):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rational_entry_points_accept_exact_values(entry):
    ENTRY_POINTS[entry](1 if entry in INT_ENTRY_POINTS else HALF)


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
    assert data["inputs_digest"] == digest(cert.inputs)


def test_comparable_strips_timestamp():
    a = Certificate("demo", PASS, {})
    b = Certificate("demo", PASS, {})
    a.timestamp = "1"
    b.timestamp = "2"
    assert a.comparable() == b.comparable()


def test_certificates_without_inputs_get_their_own_dict():
    a = Certificate("demo", PASS, {})
    b = Certificate("demo", PASS, {})
    a.inputs["n"] = 1
    assert b.inputs == {}


def test_missing_fields_rejected():
    with pytest.raises(ValueError):
        Certificate.from_dict({"claim": "x", "verdict": "PASS"})


def _pin(certificate_json: str) -> str:
    """SHA-256 of a written certificate's comparable() body."""
    body = Certificate.from_dict(json.loads(certificate_json)).comparable()
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _moved(pins: dict, expected: dict) -> list:
    return sorted(claim for claim in pins.keys() | expected
                  if pins.get(claim) != expected.get(claim))


def test_seed0_certificates_are_pinned(seed0_run):
    report = json.loads((seed0_run / "report.json").read_text())
    pins = {row["claim"]: _pin((seed0_run / row["file"]).read_text())
            for row in report["claims"]}
    assert _moved(pins, SEED0_CERTIFICATE_SHA256) == []


def test_seed23_sampled_certificates_are_pinned():
    config = RunConfig(seed=23)
    pins = {claim_id: _pin(CLAIMS_BY_ID[claim_id].run(config).to_json())
            for claim_id in DEFAULT_SAMPLE_SIZES}
    assert _moved(pins, SEED23_SAMPLED_CERTIFICATE_SHA256) == []
