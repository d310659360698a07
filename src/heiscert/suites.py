"""Claim registry, suite runner and certificate replay.

Every claim has one shape: a stable id, its suite, a one-line statement,
its inputs, and check(inputs) -> (ok, witnesses).  A sampled claim draws
its inputs with sample(stream, count), where the stream is split off the
seed with the claim id as its label, so the streams of different claims
are independent and results do not depend on execution order, and the
count is the constant DEFAULT_SAMPLE_SIZES[claim id]; a fixed claim
computes its own inputs.  `_claim` turns that pair into the registry's
run(config) entry point, and `_certificate` is the one place a
Certificate is built.

Replay re-runs the claim at the stored seed and compares the JSON text
of the two certificates, so it never evaluates stored inputs: a sampled
certificate matches only if its inputs are the ones its seed draws, and
a fixed one only if its inputs are the claim's own.  The runner writes
one JSON certificate per claim plus report.json/report.md; a crash
inside a claim becomes a FAIL certificate, in a run and in a replay
alike, never a silent skip.  Each claim's wall time goes into its report
row only, never into a certificate.
"""

from __future__ import annotations

import datetime
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import __version__
from . import convexity, restriction
from .certs import FAIL, PASS, Certificate
from .cone import (SymForm, attraction_gaps, flat_segment_certificate,
                   parabolic_fixed_form, pd_preservation_certificate,
                   sym_square_match_certificate)
from .heis import (DATA_DIR, HeisElement, get_representation, symbolic_pair,
                   verify_homomorphism, verify_injectivity_generators)
from .linalg import Matrix, integer_nilpotent_ranks, jordan_partition
from .metric import box, cross_ratio, hilbert_log_argument
from .rationals import to_fraction
from .sampler import RandomStream, check_seed

SUITE_ORDER = ("reps", "jordan", "orbit", "hull", "restrict", "cone",
               "growth", "hilbert")

DEFAULT_SAMPLE_SIZES = {
    "jordan.unique_odd_largest": 200,
    "orbit.equivariance": 25,
    "hull.dimension": 20,
    "cone.pd_preserved": 200,
    "hilbert.metric_axioms": 50,
    "hilbert.cross_ratio_invariance": 50,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    output_dir: Path = Path("certificates")
    suites: tuple = SUITE_ORDER

    def __post_init__(self):
        check_seed(self.seed)


@dataclass(frozen=True)
class Claim:
    id: str
    suite: str
    statement: str
    run: callable         # RunConfig -> Certificate
    replay: callable      # the same function as run


def _certificate(claim_id: str, ok: bool, witnesses: dict, inputs: dict,
                 seed: str) -> Certificate:
    return Certificate(claim_id, PASS if ok else FAIL, witnesses, inputs,
                       seed)


def _claim(claim_id: str, statement: str, check, sample=None,
           inputs=dict) -> Claim:
    """A registry entry from check(inputs) -> (ok, witnesses) and either
    sample(stream, count) -> inputs (a sampled claim) or inputs() ->
    inputs (a fixed claim; the default has none).  A sampled claim's
    stream is split off the run seed with the claim id as label, and its
    count is DEFAULT_SAMPLE_SIZES[claim_id].  The suite is the id's first
    component."""
    def run(config: RunConfig) -> Certificate:
        claim_inputs = (sample(RandomStream(config.seed).split(claim_id),
                               DEFAULT_SAMPLE_SIZES[claim_id])
                        if sample else inputs())
        ok, witnesses = check(claim_inputs)
        return _certificate(claim_id, ok, witnesses, claim_inputs,
                            str(config.seed))

    # Replay is the run at the stored seed; the field stays only because
    # perfbench/tracing.py wraps both run and replay.
    return Claim(claim_id, claim_id.partition(".")[0], statement, run, run)


def _triples(raw) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [tuple(to_fraction(x) for x in item) for item in raw]


def _representation(name: str):
    """inputs() naming one shipped entry table."""
    return partial(dict, representation=name)


# -- reps ---------------------------------------------------------------------

def _homomorphism(inputs):
    return verify_homomorphism(get_representation(inputs["representation"]))


def _injectivity(inputs):
    return verify_injectivity_generators(
        get_representation(inputs["representation"]))


def _homomorphism_claim(rep_name: str) -> Claim:
    return _claim(
        f"reps.homomorphism.{rep_name}",
        f"the {rep_name} entry table is a group homomorphism: "
        "M(g) M(h) = M(g*h) as an exact polynomial identity",
        _homomorphism, inputs=_representation(rep_name))


def _injectivity_claim(rep_name: str) -> Claim:
    return _claim(
        f"reps.injectivity.{rep_name}",
        f"the {rep_name} table carries the bare coordinates "
        "a, b, c, so the matrix determines the group element",
        _injectivity, inputs=_representation(rep_name))


# -- jordan -------------------------------------------------------------------

CENTER_PARTITION = [3, 2, 1, 1, 1, 1, 1]


def _jordan_center(_inputs):
    theta = get_representation("theta")
    ranks = integer_nilpotent_ranks(
        *theta.integer_image(HeisElement.of(0, 0, 1)))
    partition = jordan_partition(ranks)
    ok = partition == CENTER_PARTITION and ranks == [10, 3, 1, 0]
    # The stored sequence starts at rank(N); rank(N^0) is the dimension.
    return ok, {"partition": partition, "nilpotent_rank_sequence": ranks[1:],
                "expected": CENTER_PARTITION}


def _jordan_sample(stream: RandomStream, count: int) -> dict:
    return {"parameters": stream.distinct_triples(count, nonzero=True)}


def _jordan_unique_odd(inputs):
    params = _triples(inputs["parameters"])
    theta = get_representation("theta")
    histogram: dict[str, int] = {}
    failures = []
    for triple in params:
        partition = jordan_partition(integer_nilpotent_ranks(
            *theta.integer_image(HeisElement.of(*triple))))
        histogram[str(partition)] = histogram.get(str(partition), 0) + 1
        largest = partition[0]
        unique = partition.count(largest) == 1
        if not (unique and largest % 2 == 1):
            failures.append({"parameter": list(triple),
                             "partition": partition})
    return not failures, {"sampled": len(params),
                          "partition_histogram": histogram,
                          "failures": failures}


# -- orbit --------------------------------------------------------------------

def _orbit_formula(_inputs):
    return convexity.orbit_formula_certificate()


def _equivariance_sample(stream: RandomStream, count: int) -> dict:
    return {"pairs": [[stream.next_triple(), stream.next_triple()]
                      for _ in range(count)]}


def _equivariance(inputs):
    pairs = [(tuple(to_fraction(x) for x in g),
              tuple(to_fraction(x) for x in h)) for g, h in inputs["pairs"]]
    symbolic_ok, _ = convexity.equivariance_certificate(*symbolic_pair())
    failures = []
    for g_raw, h_raw in pairs:
        ok, _ = convexity.equivariance_certificate(HeisElement.of(*g_raw),
                                                   HeisElement.of(*h_raw))
        if not ok:
            failures.append({"g": list(g_raw), "h": list(h_raw)})
    return symbolic_ok and not failures, {"symbolic_identity": symbolic_ok,
                                          "sampled_pairs": len(pairs),
                                          "failures": failures}


def _limit_point_inputs() -> dict:
    return {"rays": convexity.DEFAULT_RAYS,
            "t_values": convexity.DEFAULT_RAY_TS}


def _limit_point(inputs):
    return convexity.limit_point_certificate(inputs["rays"],
                                             inputs["t_values"])


def _fixed_at_infinity(_inputs):
    return convexity.fixed_structure_certificate()


# -- hull ---------------------------------------------------------------------

def _frozen_parameters(name: str) -> list[tuple]:
    return convexity.OrbitSample.from_csv(
        (DATA_DIR / name).read_text()).parameters


def _lift_det(raw) -> Fraction:
    """Determinant of the lifts of the orbit points with parameters raw;
    raises unless there are exactly ten of them."""
    return Matrix(convexity.OrbitSample(raw).lifts()).det()


def _hull_dimension_sample(stream: RandomStream, count: int) -> dict:
    return {"frozen": _frozen_parameters("hull_sample.csv"),
            "fresh": [stream.distinct_triples(10) for _ in range(count)]}


def _hull_dimension(inputs):
    frozen_det = _lift_det(inputs["frozen"])
    fresh_dets = [_lift_det(raw) for raw in inputs["fresh"]]
    ok = frozen_det != 0 and all(d != 0 for d in fresh_dets)
    return ok, {"frozen_determinant": frozen_det,
                "fresh_determinants": fresh_dets}


def _degenerate_center_inputs() -> dict:
    return {"parameters": [(Fraction(0), Fraction(0), Fraction(k))
                           for k in range(1, 11)]}


def _degenerate_center(inputs):
    det = _lift_det(inputs["parameters"])
    return det == 0, {"determinant": det}


def _proper_convexity(_inputs):
    return convexity.proper_convexity_certificate()


def _extreme_points_inputs() -> dict:
    return {"parameters": _frozen_parameters("extreme_sample.csv")}


def _extreme_points(inputs):
    sample = convexity.OrbitSample(inputs["parameters"])
    verdicts = []
    functionals = []
    for i in range(len(sample)):
        extreme, witnesses = convexity.extreme_point_certificate(sample, i)
        verdicts.append(extreme)
        functionals.append(
            witnesses["separating_functional"] if extreme
            else {"weights": witnesses["convex_combination_weights"]})
    ok = all(verdicts)
    return ok, {"points": len(sample), "all_extreme": ok,
                "separating_functionals": functionals}


# -- restrict / growth --------------------------------------------------------

def _restriction(_inputs):
    return restriction.restriction_certificate()


def _growth(_inputs):
    return restriction.growth_certificate()


# -- cone ---------------------------------------------------------------------

def _sym_square_match(inputs):
    return sym_square_match_certificate(
        get_representation(inputs["representation"]))


def _pd_preserved_sample(stream: RandomStream, count: int) -> dict:
    cases = []
    for _ in range(count):
        form = _random_pd_form(stream)
        g = stream.next_triple()
        cases.append({"g": list(g), "form": [list(r) for r in form.m]})
    return {"cases": cases}


def _random_pd_form(stream: RandomStream) -> SymForm:
    # R^T R is positive definite whenever R is invertible.
    while True:
        r = Matrix([[Fraction(stream.next_int(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if r.det() != 0:
            return SymForm((r.transpose() * r).entries)


def _pd_preserved(inputs):
    failures = []
    for case in inputs["cases"]:
        g = HeisElement.of(*case["g"])
        ok, _ = pd_preservation_certificate(g, SymForm(case["form"]))
        if not ok:
            failures.append(case)
    return not failures, {"checked": len(inputs["cases"]),
                          "failures": failures}


def _parabolic(_inputs):
    forms = {name: parabolic_fixed_form(name) for name in ("A", "B", "C")}
    gaps = {name: attraction_gaps(name) for name in ("A", "B", "C")}
    checks = {
        "rank_one": all(f.matrix().rank() == 1 for f in forms.values()),
        "semidefinite": all(f.is_positive_semidefinite()
                            for f in forms.values()),
        "A_B_distinct": forms["A"] != forms["B"],
        "C_shares_A_fixed_form": forms["C"] == forms["A"],
        "gaps_decreasing": all(g[0] > g[1] > g[2] for g in gaps.values()),
    }
    ok = all(value for key, value in checks.items()
             if key != "C_shares_A_fixed_form")
    return ok, {
        "checks": checks,
        "fixed_forms": {k: [list(r) for r in f.m] for k, f in forms.items()},
        "attraction_gaps": gaps,
    }


def _flat_inputs() -> dict:
    return {"f1": parabolic_fixed_form("A").m,
            "f2": parabolic_fixed_form("B").m}


def _flat(inputs):
    return flat_segment_certificate(SymForm(inputs["f1"]),
                                    SymForm(inputs["f2"]))


# -- hilbert ------------------------------------------------------------------

def _hilbert_axioms_sample(stream: RandomStream, count: int) -> dict:
    instances = []
    for _ in range(count):
        dim = stream.next_int(1, 3)
        lows = [Fraction(stream.next_int(-5, -1)) for _ in range(dim)]
        highs = [Fraction(stream.next_int(1, 5)) for _ in range(dim)]
        def interior():
            return [lo + Fraction(stream.next_int(1, 9), 10) * (hi - lo)
                    for lo, hi in zip(lows, highs)]
        instances.append({"lows": lows, "highs": highs,
                          "x": interior(), "y": interior(), "z": interior()})
    return {"instances": instances}


def _hilbert_axioms(inputs):
    failures = []
    for idx, raw in enumerate(inputs["instances"]):
        lows = [to_fraction(v) for v in raw["lows"]]
        highs = [to_fraction(v) for v in raw["highs"]]
        x = [to_fraction(v) for v in raw["x"]]
        y = [to_fraction(v) for v in raw["y"]]
        z = [to_fraction(v) for v in raw["z"]]
        faces = box(lows, highs)
        r_xy = hilbert_log_argument(faces, x, y)
        r_yx = hilbert_log_argument(faces, y, x)
        r_xz = hilbert_log_argument(faces, x, z)
        r_yz = hilbert_log_argument(faces, y, z)
        r_xx = hilbert_log_argument(faces, x, x)
        ok = (r_xy >= 1 and (r_xy == 1) == (x == y)
              and r_xx == 1
              and r_xy == r_yx
              and r_xz <= r_xy * r_yz)
        if not ok:
            failures.append({"instance": idx})
    return not failures, {"instances": len(inputs["instances"]),
                          "failures": failures}


def _cross_ratio_sample(stream: RandomStream, count: int) -> dict:
    elements = [stream.next_triple() for _ in range(count)]
    return {
        "line_parameters": [[0, 0, 0], [1, 1, 1]],
        "mix_values": [0, 1, 2, 3],
        "elements": [list(g) for g in elements],
    }


def _cross_ratio(inputs):
    p_param, q_param = (HeisElement.of(*raw)
                        for raw in inputs["line_parameters"])
    p = convexity.orbit_lift(p_param)
    q = convexity.orbit_lift(q_param)
    points = []
    for t_raw in inputs["mix_values"]:
        t = to_fraction(t_raw)
        points.append([a + t * b for a, b in zip(p, q)])
    base = cross_ratio(*points)
    theta = get_representation("theta")
    columns = Matrix(points).transpose()
    failures = []
    for raw in inputs["elements"]:
        moved = zip(*(theta(HeisElement.of(*raw)) * columns).entries)
        if cross_ratio(*moved) != base:
            failures.append({"g": list(raw)})
    return not failures, {"base_cross_ratio": base,
                          "elements_checked": len(inputs["elements"]),
                          "failures": failures}


# -- registry -----------------------------------------------------------------

CLAIMS: tuple[Claim, ...] = (
    _homomorphism_claim("theta"),
    _homomorphism_claim("rho6"),
    _homomorphism_claim("rho14"),
    _injectivity_claim("theta"),
    _injectivity_claim("rho6"),
    _claim("jordan.center_case",
           "the central generator's image has Jordan blocks "
           "[3,2,1,1,1,1,1], read off the rank sequence of its "
           "nilpotent part",
           _jordan_center),
    _claim("jordan.unique_odd_largest",
           "every sampled nontrivial element's image has a unique largest "
           "Jordan block, and that block has odd size",
           _jordan_unique_odd, sample=_jordan_sample),
    _claim("orbit.formula",
           "the matrix of g applied to the lifted origin equals the closed "
           "orbit formula ((a^4+b^4)/24 + c^2, bc, c, a^3/6, a^2/2, a, "
           "b^3/6, b^2/2, b, 1)",
           _orbit_formula),
    _claim("orbit.equivariance",
           "acting by the matrix of g maps the orbit point of h to the "
           "orbit point of g*h, symbolically and on sampled pairs",
           _equivariance, sample=_equivariance_sample),
    _claim("orbit.limit_point",
           "along rays to infinity the first coordinate dominates every "
           "other, so the orbit accumulates only at [1:0:...:0]",
           _limit_point, inputs=_limit_point_inputs),
    _claim("orbit.fixed_at_infinity",
           "the group fixes [1:0:...:0] and maps the hyperplane at "
           "infinity x10 = 0 to itself",
           _fixed_at_infinity),
    _claim("hull.dimension",
           "ten lifted orbit points have nonzero determinant, so the "
           "orbit hull has interior of full dimension 9",
           _hull_dimension, sample=_hull_dimension_sample),
    _claim("hull.degenerate_center",
           "orbit points of central elements are degenerate: their ten "
           "lifts have determinant 0",
           _degenerate_center, inputs=_degenerate_center_inputs),
    _claim("hull.proper_convexity",
           "the first orbit coordinate is a positive combination of even "
           "powers, so the closed hull lies in {x1 >= 0} and misses "
           "{x1 = -1}",
           _proper_convexity),
    _claim("hull.extreme_points",
           "each shipped orbit point lies outside the convex hull of the "
           "others, certified by an exact separating functional",
           _extreme_points, inputs=_extreme_points_inputs),
    _claim("restrict.conjugate_to_theta",
           "the equations x6=x10=x14, x5=x13, x3=2*x12 cut an invariant "
           "subspace of the 14-dimensional action whose induced 10x10 "
           "action is conjugate to the 10-dimensional table by the "
           "witness T",
           _restriction),
    _claim("growth.block_degrees",
           "powers of the first two generators grow quadratically inside "
           "the 6x6 block and quartically in the glued chains; the "
           "central generator stays quadratic",
           _growth),
    _claim("cone.sym_square_match",
           "the 6x6 table is the congruence action g S g^T on quadratic "
           "forms, in an explicit monomial basis found by search",
           _sym_square_match, inputs=_representation("rho6")),
    _claim("cone.pd_preserved",
           "the 6x6 action keeps sampled positive-definite forms positive "
           "definite and agrees with the congruence action",
           _pd_preserved, sample=_pd_preserved_sample),
    _claim("cone.parabolic_fixed_points",
           "each generator has an attracting rank-1 semidefinite fixed "
           "form; the first two generators' fixed forms are distinct and "
           "iteration contracts toward them",
           _parabolic),
    _claim("cone.boundary_flat",
           "the straight segment between the two distinct fixed forms "
           "stays semidefinite with determinant zero: a flat in the cone "
           "boundary",
           _flat, inputs=_flat_inputs),
    _claim("hilbert.metric_axioms",
           "on sampled rational polytopes the Hilbert cross-ratio "
           "satisfies R >= 1 with equality iff the points coincide, "
           "symmetry, and the multiplicative triangle inequality",
           _hilbert_axioms, sample=_hilbert_axioms_sample),
    _claim("hilbert.cross_ratio_invariance",
           "the cross ratio of four collinear points is unchanged by "
           "every sampled group matrix",
           _cross_ratio, sample=_cross_ratio_sample),
)

CLAIMS_BY_ID = {c.id: c for c in CLAIMS}


# -- runner -------------------------------------------------------------------

def run_suite(config: RunConfig) -> dict:
    """Execute the selected suites in dependency order; write one JSON
    certificate per claim plus report.json and report.md.  Returns the
    report dictionary."""
    unknown = set(config.suites) - set(SUITE_ORDER)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    selected = [s for s in SUITE_ORDER if s in config.suites]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()

    rows = []
    for claim in CLAIMS:
        if claim.suite not in selected:
            continue
        start = time.perf_counter()
        cert = _guarded(claim.id, claim.run, config)
        wall_s = time.perf_counter() - start
        cert.anchor = claim.statement
        cert.timestamp = timestamp
        path = out / f"{claim.id}.json"
        _atomic_write(path, cert.to_json())
        rows.append({"claim": claim.id, "suite": claim.suite,
                     "verdict": cert.verdict, "statement": claim.statement,
                     "file": path.name, "wall_s": wall_s})

    overall = PASS if all(r["verdict"] == PASS for r in rows) else FAIL
    report = {
        "overall": overall,
        "claims": rows,
        "suites_run": selected,
        "config": {"seed": config.seed, "suites": list(config.suites),
                   "sample_sizes": dict(DEFAULT_SAMPLE_SIZES)},
        "toolchain": {"package_version": __version__,
                      "python": sys.version.split()[0]},
        "generated_at": timestamp,
    }
    if not rows:
        report["warning"] = "no suites selected; overall verdict is vacuous"
    _atomic_write(out / "report.json", _report_json(report))
    _atomic_write(out / "report.md", _report_markdown(report))
    return report


def _guarded(claim_id: str, entry, config: RunConfig) -> Certificate:
    """entry(config), or a FAIL certificate carrying the traceback if it
    raises; run and replay both go through here, so a crashed claim's
    certificate replays to MATCH."""
    try:
        return entry(config)
    except Exception:
        return _certificate(claim_id, False,
                            {"error": traceback.format_exc(limit=20)}, {},
                            str(config.seed))


def _report_json(report: dict) -> str:
    import json
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _report_markdown(report: dict) -> str:
    lines = ["# Verification report", ""]
    lines.append(f"Overall: **{report['overall']}**")
    if "warning" in report:
        lines.append(f"Warning: {report['warning']}")
    lines.append("")
    lines.append(f"Seed {report['config']['seed']}, package "
                 f"{report['toolchain']['package_version']}, Python "
                 f"{report['toolchain']['python']}.")
    lines.append("")
    lines.append("| Claim | Suite | Verdict | Wall (s) | Statement |")
    lines.append("|---|---|---|---:|---|")
    for row in report["claims"]:
        lines.append(f"| `{row['claim']}` | {row['suite']} | "
                     f"{row['verdict']} | {row['wall_s']:.3f} | "
                     f"{row['statement']} |")
    lines.append("")
    lines.append("Strict convexity of an invariant domain is intentionally "
                 "not certified here: the cone picture shows boundary "
                 "flats, and the certificates stop at proper convexity of "
                 "the orbit hull plus extreme-point evidence.")
    lines.append("")
    return "\n".join(lines)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


# -- replay -------------------------------------------------------------------

MATCH = "MATCH"
MISMATCH = "MISMATCH"


def replay(path: Path) -> tuple[str, dict]:
    """Re-run a stored certificate's claim at its recorded seed; MATCH iff
    the rerun reproduces it as JSON (timestamp aside).  A seed that is
    not an integer in [0, 2**64) raises ValueError."""
    import json
    data = json.loads(Path(path).read_text())
    stored = Certificate.from_dict(data)
    claim = CLAIMS_BY_ID.get(stored.claim)
    if claim is None:
        raise KeyError(f"unknown claim id {stored.claim!r}")
    # A run writes str(config.seed) for a seed in [0, 2**64); anything
    # else is malformed.
    seed = stored.seed
    if not isinstance(seed, str) or str(int(seed)) != seed:
        raise ValueError(f"stored seed {seed!r} is not an integer")
    config = RunConfig(seed=int(seed))
    try:
        digest_ok = stored.inputs_digest() == data["inputs_digest"]
    except TypeError as exc:
        raise ValueError(f"malformed stored inputs for {stored.claim}: "
                         f"{exc}") from exc
    recomputed = _guarded(claim.id, claim.replay, config)
    recomputed.anchor = claim.statement
    # Compared as JSON text: as dicts, a stored 1 equals a recomputed True.
    same = digest_ok and \
        json.dumps(recomputed.comparable(), sort_keys=True) == \
        json.dumps(stored.comparable(), sort_keys=True)
    detail = {
        "claim": stored.claim,
        "stored_verdict": stored.verdict,
        "recomputed_verdict": recomputed.verdict,
        "inputs_digest_intact": digest_ok,
    }
    return (MATCH if same else MISMATCH), detail
