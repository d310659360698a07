"""Command-line interface and suite runner: exit codes, determinism,
replay, report files."""

import hashlib
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscert import convexity, suites
from heiscert.certs import FAIL, PASS, Certificate, canonical_json, digest, \
    jsonable
from heiscert.cli import main
from heiscert.heis import TABLE_DIMENSIONS, HeisElement, get_representation
from heiscert.rationals import format_rational, parse_rational
from heiscert.sampler import MASK64, MAX_DEN, MAX_NUM, RandomStream
from heiscert.suites import (CLAIMS_BY_ID, DEFAULT_SAMPLE_SIZES, MATCH,
                             MISMATCH, RunConfig, replay, run_suite)
from test_heis import rational_image
from test_linalg import _blocks_from_ranks, _fraction_nilpotent_ranks


def read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def strip_timestamps(data: dict) -> dict:
    data = dict(data)
    data.pop("timestamp", None)
    data.pop("generated_at", None)
    # report.json rows carry each claim's measured wall time; a
    # certificate has no "claims" key and is compared whole.
    if "claims" in data:
        data["claims"] = [{k: v for k, v in row.items() if k != "wall_s"}
                          for row in data["claims"]]
    return data


def test_verify_reps_suite(tmp_path, capsys):
    code = main(["verify", "--suite", "reps", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    cert_files = sorted(p.name for p in tmp_path.glob("reps.*.json"))
    assert cert_files == [
        "reps.homomorphism.rho14.json",
        "reps.homomorphism.rho6.json",
        "reps.homomorphism.theta.json",
        "reps.injectivity.rho6.json",
        "reps.injectivity.theta.json",
    ]
    report = read_json(tmp_path / "report.json")
    assert report["overall"] == "PASS"
    assert (tmp_path / "report.md").exists()


def test_report_lists_statements(tmp_path):
    report = run_suite(RunConfig(suites=("growth",), output_dir=tmp_path))
    assert report["claims"][0]["statement"]
    markdown = (tmp_path / "report.md").read_text()
    assert "growth.block_degrees" in markdown
    assert report["toolchain"]["package_version"]
    assert all(row["wall_s"] >= 0 for row in report["claims"])
    assert read_json(tmp_path / "report.json")["claims"] == report["claims"]
    assert "| Wall (s) |" in markdown
    assert ("A row's wall time includes any one-off shared work that its "
            "claim is the first in its process to trigger, such as "
            "compiling theta's Jordan power plan; when claims run in "
            "worker processes, that work is paid once in each worker "
            "that needs it.") in markdown


def test_empty_suite_selection_warns(tmp_path):
    report = run_suite(RunConfig(suites=(), output_dir=tmp_path))
    assert report["overall"] == "PASS"
    assert "warning" in report
    assert report["claims"] == []


def test_unknown_suite_rejected(tmp_path):
    with pytest.raises(ValueError):
        run_suite(RunConfig(suites=("nope",), output_dir=tmp_path))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_run_config_refuses_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match="outside"):
        RunConfig(seed=seed)


# Instants whose binary float is exact or within a microsecond's half;
# the first two are whole seconds, where isoformat drops the microseconds.
@pytest.mark.parametrize("instant", [
    0, 1_700_000_000, Fraction(3_400_000_001, 2),
    Fraction(951_782_400_125, 1000), Fraction(1_234_567_890_000_001, 10**6)])
def test_run_timestamp_is_datetime_isoformat(instant):
    expected = datetime.fromtimestamp(float(instant), timezone.utc)
    assert suites._utc_timestamp(int(instant * 10**9)) == \
        expected.isoformat()


def test_setup_imports_nothing_a_passing_run_leaves_unused():
    # The child imports what perfbench's set-up does, and the modules it
    # adds are measured against the interpreter's start.  dataclasses
    # (with inspect, ast and dis) stays while perfbench/tracing.py
    # rebuilds each Claim with dataclasses.replace; ROADMAP item 11
    # removes it.
    src = str(Path(suites.__file__).parents[1])
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {src!r})\n"
            "from heiscert import suites\n"
            "from heiscert.heis import get_representation\n"
            "for name in ('theta', 'rho6', 'rho14'):\n"
            "    get_representation(name)\n"
            "print(*sorted(set(sys.modules) - before))\n")
    added = set(subprocess.run([sys.executable, "-c", code], check=True,
                               capture_output=True, text=True).stdout.split())
    assert "heiscert.suites" in added
    assert {"traceback", "csv", "datetime"} & added == set()


def test_crash_becomes_fail_certificate(tmp_path, monkeypatch):
    import heiscert.suites as suites_module
    claim = suites_module.CLAIMS_BY_ID["growth.block_degrees"]
    broken = suites_module.Claim(
        claim.id, claim.suite, claim.statement,
        run=lambda config: 1 / 0, replay=claim.replay)
    monkeypatch.setattr(suites_module, "CLAIMS",
                        tuple(broken if c.id == claim.id else c
                              for c in suites_module.CLAIMS))
    report = suites_module.run_suite(
        RunConfig(suites=("growth",), output_dir=tmp_path))
    assert report["overall"] == "FAIL"
    cert = read_json(tmp_path / "growth.block_degrees.json")
    assert cert["verdict"] == "FAIL"
    assert "ZeroDivisionError" in cert["witnesses"]["error"]


def test_crash_certificate_replays_to_match(tmp_path, monkeypatch):
    # Run and replay share one crash path, so the traceback a run writes
    # is the one a replay on the same checkout recomputes.
    import heiscert.suites as suites_module
    claim = suites_module.CLAIMS_BY_ID["growth.block_degrees"]

    def crash(config):
        return 1 / 0

    broken = suites_module.Claim(claim.id, claim.suite, claim.statement,
                                 run=crash, replay=crash)
    monkeypatch.setattr(suites_module, "CLAIMS",
                        tuple(broken if c.id == claim.id else c
                              for c in suites_module.CLAIMS))
    monkeypatch.setitem(suites_module.CLAIMS_BY_ID, claim.id, broken)
    suites_module.run_suite(RunConfig(suites=("growth",), output_dir=tmp_path))
    path = tmp_path / "growth.block_degrees.json"
    assert read_json(path)["verdict"] == FAIL
    verdict, detail = replay(path)
    assert verdict == MATCH
    assert detail["recomputed_verdict"] == FAIL


def _with_claim(claim_id, run):
    """suites.CLAIMS with claim_id's run replaced by run."""
    claim = CLAIMS_BY_ID[claim_id]
    broken = suites.Claim(claim.id, claim.suite, claim.statement, run=run,
                          replay=claim.replay)
    return tuple(broken if c.id == claim_id else c for c in suites.CLAIMS)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Three claims, so that they run in two worker processes.
POOLED_SUITES = ("growth", "hilbert")


def test_crash_in_a_worker_becomes_fail_certificate(tmp_path, monkeypatch,
                                                    pooled):
    def crash(config):
        raise ZeroDivisionError(f"in process {os.getpid()}")

    monkeypatch.setattr(suites, "CLAIMS",
                        _with_claim("growth.block_degrees", crash))
    report = run_suite(RunConfig(suites=POOLED_SUITES, output_dir=tmp_path))
    assert_no_child_left()
    assert report["overall"] == FAIL
    assert [(row["claim"], row["verdict"]) for row in report["claims"]] == [
        ("growth.block_degrees", FAIL),
        ("hilbert.metric_axioms", PASS),
        ("hilbert.cross_ratio_invariance", PASS)]
    cert = read_json(tmp_path / "growth.block_degrees.json")
    assert cert["verdict"] == FAIL
    error = cert["witnesses"]["error"]
    assert "ZeroDivisionError: in process " in error
    assert f"in process {os.getpid()}\n" not in error


def test_worker_error_outside_a_claim_keeps_its_type(tmp_path, monkeypatch,
                                                     pooled, capsys):
    def refuse(path, text):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(suites, "_atomic_write", refuse)
    with pytest.raises(OSError) as raised:
        run_suite(RunConfig(suites=POOLED_SUITES, output_dir=tmp_path))
    assert_no_child_left()
    assert type(raised.value) is OSError
    assert raised.value.errno == 28
    assert raised.value.filename.endswith(".json")
    assert "raised in a worker process" in str(raised.value.__cause__)
    assert not (tmp_path / "report.json").exists()
    args = ["verify", "--out", str(tmp_path)]
    assert main(args + [f"--suite={s}" for s in POOLED_SUITES]) == 2
    assert_no_child_left()
    assert "No space left on device" in capsys.readouterr().err


def test_worker_that_dies_without_its_rows_makes_the_run_raise(
        tmp_path, monkeypatch, pooled):
    monkeypatch.setattr(suites, "CLAIMS", _with_claim(
        "growth.block_degrees", lambda config: os._exit(7)))
    with pytest.raises(RuntimeError, match="status 7 without sending"):
        run_suite(RunConfig(suites=POOLED_SUITES, output_dir=tmp_path))
    assert_no_child_left()
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("runner", ["serial", "pooled"])
def test_run_that_raises_leaves_no_earlier_report(runner, request, tmp_path,
                                                  monkeypatch):
    # The earlier run's PASS report must not sit beside the new run's
    # certificates.
    request.getfixturevalue(runner)
    (tmp_path / "report.json").write_text(json.dumps({"overall": PASS}))
    (tmp_path / "report.md").write_text("overall: PASS\n")
    if runner == "serial":
        def refuse(path, text):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(suites, "_atomic_write", refuse)
        raised = OSError
    else:
        monkeypatch.setattr(suites, "CLAIMS", _with_claim(
            "growth.block_degrees", lambda config: os._exit(7)))
        raised = RuntimeError
    with pytest.raises(raised):
        run_suite(RunConfig(suites=POOLED_SUITES, output_dir=tmp_path))
    assert_no_child_left()
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("seed", [0, 23])
def test_pooled_run_equals_serial_run(seed, tmp_path, monkeypatch, pooled):
    pooled_report = run_suite(RunConfig(seed=seed,
                                        output_dir=tmp_path / "pooled"))
    assert_no_child_left()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial_report = run_suite(RunConfig(seed=seed,
                                            output_dir=tmp_path / "serial"))
    assert strip_timestamps(pooled_report) == strip_timestamps(serial_report)
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert sorted(p.name for p in (tmp_path / "pooled").iterdir()) == names
    assert len(names) == len(suites.CLAIMS) + 2
    for name in names:
        if name == "report.md":
            continue
        assert strip_timestamps(read_json(tmp_path / "pooled" / name)) == \
            strip_timestamps(read_json(tmp_path / "serial" / name))


def test_determinism_across_runs(tmp_path):
    config_a = RunConfig(seed=0, suites=("reps", "orbit", "hull"),
                         output_dir=tmp_path / "a")
    config_b = RunConfig(seed=0, suites=("reps", "orbit", "hull"),
                         output_dir=tmp_path / "b")
    run_suite(config_a)
    run_suite(config_b)
    files_a = sorted((tmp_path / "a").glob("*.json"))
    assert files_a
    for path_a in files_a:
        path_b = tmp_path / "b" / path_a.name
        assert strip_timestamps(read_json(path_a)) == \
            strip_timestamps(read_json(path_b))


def test_seed_changes_sampled_inputs(tmp_path):
    run_suite(RunConfig(seed=0, suites=("jordan",), output_dir=tmp_path / "s0"))
    run_suite(RunConfig(seed=1, suites=("jordan",), output_dir=tmp_path / "s1"))
    a = read_json(tmp_path / "s0" / "jordan.unique_odd_largest.json")
    b = read_json(tmp_path / "s1" / "jordan.unique_odd_largest.json")
    assert a["inputs"] != b["inputs"]
    assert a["verdict"] == b["verdict"] == "PASS"


def test_seeds_share_no_hull_fresh_sample():
    claim = CLAIMS_BY_ID["hull.dimension"]
    fresh = [{tuple(map(tuple, sample))
              for sample in claim.run(RunConfig(seed=seed)).inputs["fresh"]}
             for seed in (0, 1)]
    assert all(len(samples) == 20 for samples in fresh)
    assert not fresh[0] & fresh[1]


def test_replay_match_and_tamper_detection(tmp_path):
    run_suite(RunConfig(suites=("hull",), output_dir=tmp_path))
    path = tmp_path / "hull.dimension.json"
    verdict, detail = replay(path)
    assert verdict == MATCH
    assert detail["inputs_digest_intact"]

    data = read_json(path)
    data["witnesses"]["frozen_determinant"] = "999"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    verdict, _ = replay(tampered)
    assert verdict == MISMATCH

    data = read_json(path)
    data["inputs"]["fresh"] = data["inputs"]["fresh"][:-1]
    edited_inputs = tmp_path / "edited_inputs.json"
    edited_inputs.write_text(json.dumps(data))
    verdict, detail = replay(edited_inputs)
    assert verdict == MISMATCH
    assert not detail["inputs_digest_intact"]


def test_replay_cli_exit_codes(tmp_path, capsys):
    run_suite(RunConfig(suites=("growth",), output_dir=tmp_path))
    path = tmp_path / "growth.block_degrees.json"
    assert main(["replay", str(path)]) == 0
    assert "MATCH" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["replay", str(bad)]) == 2

    unknown = tmp_path / "unknown.json"
    data = read_json(path)
    data["claim"] = "no.such.claim"
    unknown.write_text(json.dumps(data))
    assert main(["replay", str(unknown)]) == 2

    assert main(["replay", str(tmp_path / "missing.json")]) == 2


@pytest.fixture(scope="module")
def certificates(seed0_run) -> Path:
    """The certificates of one seed-0 run of every suite."""
    report = read_json(seed0_run / "report.json")
    assert report["overall"] == PASS
    assert len(report["claims"]) == len(CLAIMS_BY_ID)
    return seed0_run


def test_replay_is_the_run():
    assert all(claim.replay is claim.run for claim in CLAIMS_BY_ID.values())


def test_match_converts_no_stored_body(certificates, monkeypatch):
    # On the MATCH path the stored body is compared as text only; it is
    # validated through comparable() only when it differs.
    def refuse(self):
        raise AssertionError("comparable() called on the MATCH path")

    monkeypatch.setattr(Certificate, "comparable", refuse)
    for claim_id in sorted(CLAIMS_BY_ID):
        verdict, detail = replay(certificates / f"{claim_id}.json")
        assert (verdict, detail["inputs_digest_intact"]) == (MATCH, True)


@pytest.mark.parametrize("claim_id", sorted(CLAIMS_BY_ID))
def test_every_claim_replays(certificates, claim_id, tmp_path):
    path = certificates / f"{claim_id}.json"
    verdict, detail = replay(path)
    assert verdict == MATCH
    assert detail["inputs_digest_intact"]

    # Replay compares JSON values, not file bytes: the same body written
    # compactly, keys in file order, still matches.
    data = read_json(path)
    compact = tmp_path / "compact.json"
    compact.write_text(json.dumps(data))
    assert replay(compact) == (MATCH, detail)

    for edit, digest_intact in (({"paper_anchor": "edited"}, True),
                                ({"inputs_digest": "0" * 64}, False)):
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**data, **edit}))
        verdict, edited_detail = replay(edited)
        assert (verdict, edited_detail["inputs_digest_intact"]) == \
            (MISMATCH, digest_intact)

    data["verdict"] = FAIL if data["verdict"] == PASS else PASS
    flipped = tmp_path / "flipped.json"
    flipped.write_text(json.dumps(data))
    verdict, detail = replay(flipped)
    assert verdict == MISMATCH
    assert detail["inputs_digest_intact"]


@pytest.mark.parametrize("claim_id, check, edit", [
    ("orbit.limit_point", convexity.limit_point_certificate,
     lambda inputs: {**inputs, "rays": []}),
    ("hull.extreme_points", suites._extreme_points,
     lambda inputs: {"parameters": inputs["parameters"][:11]}),
    ("hull.degenerate_center", suites._degenerate_center,
     lambda inputs: {"parameters": [["0", "0", str(k)]
                                    for k in range(2, 12)]}),
    ("restrict.conjugate_to_theta", lambda rederived: suites._restriction(),
     lambda inputs: {"rederived": True}),
], ids=["limit-point-no-rays", "extreme-points-subset",
        "degenerate-center-other-parameters", "restriction-rederived"])
def test_replay_rejects_forged_fixed_inputs(certificates, claim_id, check,
                                            edit, tmp_path):
    # The forger edits the inputs of a fixed claim, re-derives verdict
    # and witnesses by running the claim's own check on the edited
    # inputs, and recomputes the inputs digest.  Each forgery passes its
    # check, so only the inputs betray it.
    data = read_json(certificates / f"{claim_id}.json")
    inputs = edit(data["inputs"])
    ok, witnesses = check(**inputs)
    assert ok
    data.update(verdict=PASS, witnesses=jsonable(witnesses), inputs=inputs,
                inputs_digest=digest(inputs))
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    verdict, detail = replay(path)
    assert detail["inputs_digest_intact"]
    assert verdict == MISMATCH


@pytest.mark.parametrize("seed", ["5", "1"])
def test_replay_rejects_edited_seed(certificates, seed, tmp_path):
    # The inputs digest does not cover the seed; the re-draw does.
    data = read_json(certificates / "hull.dimension.json")
    assert data["seed"] == "0"
    path = tmp_path / "reseeded.json"
    path.write_text(json.dumps({**data, "seed": seed}))
    verdict, detail = replay(path)
    assert detail["inputs_digest_intact"]
    assert verdict == MISMATCH


@pytest.mark.parametrize("claim_id, samples", [
    ("jordan.unique_odd_largest", "parameters"),
    ("orbit.equivariance", "pairs"),
    ("hull.dimension", "fresh"),
    ("cone.pd_preserved", "cases"),
    ("hilbert.metric_axioms", "instances"),
    ("hilbert.cross_ratio_invariance", "elements"),
])
def test_replay_rejects_truncated_samples(certificates, claim_id, samples,
                                          tmp_path, monkeypatch):
    # The forger keeps only the first drawn sample, which is all a run
    # drawing one sample writes, takes verdict and witnesses from such a
    # run, and recomputes the inputs digest.
    data = read_json(certificates / f"{claim_id}.json")
    assert len(data["inputs"][samples]) == DEFAULT_SAMPLE_SIZES[claim_id]
    inputs = {**data["inputs"], samples: data["inputs"][samples][:1]}
    with monkeypatch.context() as patch:
        patch.setitem(DEFAULT_SAMPLE_SIZES, claim_id, 1)
        forged = CLAIMS_BY_ID[claim_id].run(RunConfig(seed=0))
    assert digest(forged.inputs) == digest(inputs)
    data.update(verdict=forged.verdict, witnesses=jsonable(forged.witnesses),
                inputs=inputs, inputs_digest=digest(inputs))
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(data))
    verdict, detail = replay(path)
    assert detail["inputs_digest_intact"]
    assert verdict == MISMATCH


@pytest.mark.parametrize("claim_id, path, old, new", [
    ("cone.parabolic_fixed_points", ("checks", "A_B_distinct"), True, 1),
    ("orbit.equivariance", ("symbolic_identity",), True, 1),
    ("jordan.center_case", ("partition", 2), 1, True),
    ("jordan.center_case", ("nilpotent_rank_sequence", 2), 0, False),
], ids=["checks-true-to-1", "symbolic-identity-true-to-1",
        "partition-1-to-true", "rank-0-to-false"])
def test_replay_tells_bool_from_int_witness(certificates, claim_id, path, old,
                                            new, tmp_path):
    # Equal as Python values (True == 1), different as JSON.
    data = read_json(certificates / f"{claim_id}.json")
    current = _leaf(data["witnesses"], path)
    assert (type(current), current) == (type(old), old)
    data["witnesses"] = _replaced(data["witnesses"], path, new)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data))
    verdict, detail = replay(edited)
    assert detail["inputs_digest_intact"]
    assert verdict == MISMATCH


def _leaf_paths(value, path=()) -> list[tuple]:
    """The key path of every leaf (neither list nor object) in value."""
    if isinstance(value, dict):
        return [p for key in sorted(value)
                for p in _leaf_paths(value[key], path + (key,))]
    if isinstance(value, list):
        return [p for i, item in enumerate(value)
                for p in _leaf_paths(item, path + (i,))]
    return [path]


def _replaced(value, path, new):
    """A copy of value with the leaf at path replaced by new."""
    if not path:
        return new
    head, *rest = path
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[head] = _replaced(value[head], rest, new)
    return copy


def _leaf(value, path):
    for key in path:
        value = value[key]
    return value


JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-30, 30),
    st.fractions(-30, 30, max_denominator=7).map(format_rational),
    st.text("0123456789/-x", max_size=4))


@st.composite
def one_field_mutations(draw, certificates: Path):
    """(claim id, certificate body with exactly one field changed, kind)."""
    claim_id = draw(st.sampled_from(sorted(CLAIMS_BY_ID)))
    data = read_json(certificates / f"{claim_id}.json")
    kinds = ["witnesses", "verdict", "inputs_digest", "claim", "seed"]
    if data["inputs"]:
        kinds += ["inputs", "inputs+digest"]
    kind = draw(st.sampled_from(kinds))
    if kind in ("inputs", "inputs+digest", "witnesses"):
        part = kind.partition("+")[0]
        path = draw(st.sampled_from(_leaf_paths(data[part])))
        new = draw(JSON_LEAVES.filter(
            lambda v: digest(v) != digest(_leaf(data[part], path))))
        data[part] = _replaced(data[part], path, new)
        if kind == "inputs+digest":
            data["inputs_digest"] = digest(data["inputs"])
    elif kind == "verdict":
        data["verdict"] = draw(st.sampled_from(
            [v for v in (PASS, FAIL, "", None) if v != data["verdict"]]))
    elif kind == "inputs_digest":
        i = draw(st.integers(0, len(data["inputs_digest"]) - 1))
        old = data["inputs_digest"][i]
        new = draw(st.sampled_from("0123456789abcdef").filter(
            lambda c: c != old))
        data["inputs_digest"] = (data["inputs_digest"][:i] + new
                                 + data["inputs_digest"][i + 1:])
    elif kind == "claim":
        data["claim"] = draw(st.sampled_from(
            [c for c in sorted(CLAIMS_BY_ID) if c != claim_id]
            + ["no.such.claim"]))
    else:
        # Seeds outside [0, 2**64) exit 2 (see the malformed rows); a
        # seed inside is one a run may write.
        data["seed"] = str(draw(st.integers(1, MASK64)))
    return claim_id, data, kind


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_one_field_mutation_never_matches(certificates, tmp_path_factory,
                                          data):
    claim_id, body, kind = data.draw(one_field_mutations(certificates))
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(body))
    code = main(["replay", str(path)])
    if kind == "seed" and claim_id not in DEFAULT_SAMPLE_SIZES:
        # A fixed claim computes its own inputs, so this is the
        # certificate `heiscert verify --seed N` writes.
        assert code == 0
    else:
        assert code in (1, 2)


def _with_inputs(data: dict, inputs) -> dict:
    return {**data, "inputs": inputs, "inputs_digest": digest(inputs)}


def _with_first_parameter(data: dict, value: str) -> dict:
    first, *rest = data["inputs"]["parameters"]
    return _with_inputs(data, {**data["inputs"],
                               "parameters": [[value, *first[1:]], *rest]})


def _with_float_g(data: dict) -> dict:
    # digest() refuses floats, so the stored digest is left as it was.
    first, *rest = data["inputs"]["cases"]
    case = {**first, "g": [1.5, *first["g"][1:]]}
    return {**data, "inputs": {**data["inputs"], "cases": [case, *rest]}}


def _with_float_determinant(data: dict) -> dict:
    # A float in the witnesses, which the inputs digest does not cover.
    return {**data, "witnesses": {**data["witnesses"], "determinant": 0.0}}


def _nested_in(part: str, depth: int):
    """A malform giving the certificate as text, with a list nested depth
    deep inside its inputs or witnesses (part); json.dumps cannot write
    such nesting."""
    def malform(data: dict) -> str:
        marked = {**data, part: {**data[part], "nested": "MARK"}}
        return json.dumps(marked).replace('"MARK"',
                                          "[" * depth + "]" * depth)
    return malform


def _with_first_leaf(data: dict, part: str, value) -> dict:
    """data with the first leaf of its inputs or witnesses (part) set to
    value; a new inputs part gets the SHA-256 of its canonical text as
    the digest, which digest() cannot give for a float."""
    data = {**data, part: _replaced(data[part], _leaf_paths(data[part])[0],
                                    value)}
    if part == "inputs":
        text = canonical_json(data["inputs"])
        data["inputs_digest"] = hashlib.sha256(text.encode()).hexdigest()
    return data


def _with_one_fresh_too_many(data: dict) -> dict:
    # One entry more than `heiscert verify` draws.
    fresh = data["inputs"]["fresh"]
    count = DEFAULT_SAMPLE_SIZES["hull.dimension"] + 1
    return _with_inputs(data, {**data["inputs"], "fresh": [
        fresh[i % len(fresh)] for i in range(count)]})


@pytest.mark.parametrize("claim_id, malform", [
    ("hull.dimension", lambda data: {**data, "inputs": "oops"}),
    ("hull.dimension", lambda data: 123),
    ("hull.dimension", lambda data: {**data, "claim": ["hull.dimension"]}),
    ("cone.pd_preserved", _with_float_g),
    ("hull.degenerate_center", _with_float_determinant),
    ("hull.dimension", lambda data: {**data, "seed": "five"}),
    ("hull.dimension", lambda data: {**data, "seed": "05"}),
    ("hull.dimension", lambda data: {**data, "seed": 0}),
    ("hull.dimension", lambda data: {**data, "seed": str(2 ** 64)}),
    ("hull.dimension", lambda data: {**data, "seed": "-1"}),
    ("orbit.formula", lambda data: {**data, "seed": str(2 ** 64)}),
    ("orbit.formula", lambda data: {**data, "seed": "-1"}),
    # json.loads parses 900 levels, but converting them overflows.
    ("hull.dimension", _nested_in("inputs", 900)),
    # json.loads itself overflows.
    ("hull.dimension", _nested_in("inputs", 5000)),
    ("hull.dimension", lambda data: {**data, "timestamp": []}),
    ("hull.dimension", lambda data: {**data, "verdict": 1}),
    ("hull.dimension", lambda data: {**data, "inputs_digest": None}),
    ("hull.dimension", lambda data: {**data, "paper_anchor": ["x"]}),
    # json.loads reads NaN and Infinity as floats.
    ("hull.dimension",
     lambda data: _with_first_leaf(data, "inputs", math.nan)),
    ("hull.degenerate_center",
     lambda data: _with_first_leaf(data, "witnesses", math.inf)),
    ("hull.dimension", _nested_in("witnesses", 900)),
], ids=["inputs-not-object", "body-not-object", "claim-not-string",
        "float-input", "float-witness", "seed-not-integer", "seed-not-canonical",
        "seed-not-string", "sampled-seed-2**64", "sampled-seed-negative",
        "fixed-seed-2**64", "fixed-seed-negative", "nested-900",
        "nested-5000", "timestamp-not-string", "verdict-not-string",
        "digest-not-string", "anchor-not-string", "nan-input",
        "infinity-witness", "nested-900-witness"])
def test_replay_malformed_certificate_exits_2(certificates, claim_id, malform,
                                              tmp_path, capsys):
    data = read_json(certificates / f"{claim_id}.json")
    path = tmp_path / "malformed.json"
    body = malform(data)
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    assert main(["replay", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("claim_id, forge", [
    ("hull.dimension",
     lambda data: {**data, "inputs": {"frozen": [[1, 2]], "fresh": []}}),
    ("hull.dimension",
     lambda data: {**data, "inputs": {**data["inputs"],
                                      "frozen": data["inputs"]["frozen"][:9]}}),
    ("jordan.unique_odd_largest",
     lambda data: _with_first_parameter(data, "1/0")),
    ("hull.dimension", _with_one_fresh_too_many),
    ("jordan.unique_odd_largest",
     lambda data: _with_first_parameter(data, str(MAX_NUM + 1))),
    ("jordan.unique_odd_largest",
     lambda data: _with_first_parameter(data, f"1/{MAX_DEN + 1}")),
], ids=["short-frozen-triple", "nine-frozen-points", "zero-denominator",
        "fresh-above-run-size", "numerator-above-sampler",
        "denominator-above-sampler"])
def test_replay_of_inputs_no_run_draws_mismatches(certificates, claim_id,
                                                  forge, tmp_path, capsys):
    # Replay re-runs the claim at the stored seed and never evaluates the
    # stored inputs, so inputs the check could not even read, and values
    # the sampler never draws, are a MISMATCH like any other edit.
    data = read_json(certificates / f"{claim_id}.json")
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forge(data)))
    assert main(["replay", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_seed_outside_64_bits_exits_2(tmp_path, seed, capsys):
    # Seeds 0 and 2**64 would draw the same samples.
    out = tmp_path / "certs"
    assert main(["verify", "--seed", seed, "--out", str(out)]) == 2
    assert not out.exists()
    assert main(["orbit", "--count", "4", "--seed", seed]) == 2
    assert "outside [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["614126", "-1"])
def test_orbit_count_outside_distinct_triples_exits_2(count, capsys,
                                                      monkeypatch):
    # 85 sampled values give 85**3 = 614125 distinct triples; a larger
    # count can never be drawn, and a negative one is no count at all.
    def refuse(self):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(RandomStream, "next_u64", refuse)
    assert main(["orbit", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside [0, 614125]" in captured.err


def test_orbit_command_is_deterministic(capsys):
    assert main(["orbit", "--count", "4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["orbit", "--count", "4", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.splitlines()[0] == "a,b,c"
    assert len(first.splitlines()) == 5


JORDAN_ELEMENTS = ["0,0,1", "1,0,0", "0,1,0", "2,-1/3,5/2", "-7/4,3,0"]


@pytest.mark.parametrize("rep_name", list(TABLE_DIMENSIONS))
def test_jordan_command(rep_name, capsys):
    # The command ranks each table's integer image; the oracle multiplies
    # out the rational powers of N = M - I.
    rep = get_representation(rep_name)
    for element in JORDAN_ELEMENTS:
        # "=" keeps argparse from reading "-7/4,..." as an option.
        assert main(["jordan", f"--element={element}", "--rep",
                     rep_name]) == 0
        g = HeisElement.of(*(parse_rational(x) for x in element.split(",")))
        expected = _blocks_from_ranks([rep.dimension] + \
            _fraction_nilpotent_ranks(rational_image(rep, g)))
        assert capsys.readouterr().out == \
            f"{rep_name}({element}) jordan blocks: {expected}\n"
    if rep_name == "theta":
        assert main(["jordan", "--element", "0,0,1", "--rep", "theta"]) == 0
        assert "[3, 2, 1, 1, 1, 1, 1]" in capsys.readouterr().out


def test_jordan_command_accepts_identity(capsys):
    # identity is unipotent; partition is all singletons
    assert main(["jordan", "--element", "0,0,0"]) == 0
    assert "[1, 1, 1, 1, 1, 1, 1, 1, 1, 1]" in capsys.readouterr().out


def test_jordan_command_rejects_zero_denominator(capsys):
    assert main(["jordan", "--element", "1/0,0,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_jordan_command_rejects_unknown_table(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["jordan", "--element", "0,0,1", "--rep", "rho7"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'rho7'" in capsys.readouterr().err


def test_hilbert_command(tmp_path, capsys):
    polytope = tmp_path / "interval.txt"
    polytope.write_text("1\t1\n-1\t1\n")
    assert main(["hilbert", "--polytope", str(polytope),
                 "--x", "0", "--y", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "R = 3" in out

    assert main(["hilbert", "--polytope", str(polytope),
                 "--x", "5", "--y", "0"]) == 2
    capsys.readouterr()

    # "=" keeps argparse from reading "-1/2" as an option.
    polytope.write_text("1 1\n-1 1\n")
    assert main(["hilbert", "--polytope", str(polytope),
                 "--x=-1/2", "--y=1/2"]) == 0
    assert "R = 9" in capsys.readouterr().out


def test_hilbert_command_beyond_float_range(tmp_path, capsys):
    """R = (1 + y) / (1 - y) = 2 * 10**400 - 1 on (-1, 1) with x = 0 is
    too large for a float, but its log is not."""
    polytope = tmp_path / "interval.txt"
    polytope.write_text("1 1\n-1 1\n")
    assert main(["hilbert", "--polytope", str(polytope), "--x=0",
                 f"--y={10**400 - 1}/{10**400}"]) == 0
    out = capsys.readouterr().out
    assert f"log-argument R = {2 * 10**400 - 1}\n" in out
    distance = float(out.split("distance (1/2) log R = ")[1])
    assert math.isfinite(distance)
    assert math.isclose(distance, (400 * math.log(10) + math.log(2)) / 2)


@pytest.mark.parametrize("x, y", [("0", "1/2"), ("0,0,5", "1/2,0,-7")],
                         ids=["point-too-short", "point-too-long"])
def test_hilbert_dimension_mismatch_exits_2(tmp_path, capsys, x, y):
    square = tmp_path / "square.txt"
    square.write_text("1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n")
    assert main(["hilbert", "--polytope", str(square),
                 f"--x={x}", f"--y={y}"]) == 2
    assert "dimension" in capsys.readouterr().err


def test_output_dir_errors_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["verify", "--suite", "growth",
                 "--out", str(blocker / "sub")])
    assert code == 2


def test_env_var_sets_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("HEISCERT_OUT", str(tmp_path / "env_out"))
    import importlib
    import heiscert.cli as cli_module
    importlib.reload(cli_module)
    try:
        assert cli_module.main(["verify", "--suite", "growth"]) == 0
        assert (tmp_path / "env_out" / "growth.block_degrees.json").exists()
    finally:
        monkeypatch.delenv("HEISCERT_OUT")
        importlib.reload(cli_module)
