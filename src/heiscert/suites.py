"""Claim registry, suite runner and certificate replay.

Every checkable claim is a registry entry with a stable id, the suite it
belongs to, a one-line statement, and two entry points: run(config)
computes it fresh (sampling through a stream split off the config seed,
so results are independent of execution order), while replay(inputs,
seed) recomputes it from a stored certificate's recorded inputs.  The
runner writes one JSON certificate per claim plus report.json/report.md;
a crash inside a claim becomes a FAIL certificate, never a silent skip.
"""

from __future__ import annotations

import datetime
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import convexity, restriction
from .certs import FAIL, PASS, Certificate
from .cone import (SymForm, attraction_gaps, flat_segment_certificate,
                   parabolic_fixed_form, pd_preservation_certificate,
                   sym_square_match_certificate)
from .heis import (DATA_DIR, HeisElement, get_representation,
                   verify_homomorphism, verify_injectivity_generators)
from .linalg import Matrix, jordan_partition
from .metric import box, cross_ratio, hilbert_log_argument
from .rationals import to_fraction
from .sampler import RandomStream

SUITE_ORDER = ("reps", "jordan", "orbit", "hull", "restrict", "cone",
               "growth", "hilbert")

DEFAULT_SAMPLE_SIZES = {
    "jordan": 200,
    "equivariance": 25,
    "hull_fresh": 20,
    "pd_checks": 200,
    "hilbert": 50,
    "cross_ratio": 50,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    sample_sizes: dict = field(default_factory=dict)
    output_dir: Path = Path("certificates")
    suites: tuple = SUITE_ORDER
    rederive_witnesses: bool = False

    def size(self, key: str) -> int:
        return int(self.sample_sizes.get(key, DEFAULT_SAMPLE_SIZES[key]))

    def stream(self, label: str) -> RandomStream:
        return RandomStream(self.seed).split(label)


@dataclass(frozen=True)
class Claim:
    id: str
    suite: str
    statement: str
    run: callable         # RunConfig -> Certificate
    replay: callable      # (inputs, seed) -> Certificate


def _triples(raw) -> list[tuple[Fraction, Fraction, Fraction]]:
    return [tuple(to_fraction(x) for x in item) for item in raw]


def _element(raw) -> HeisElement:
    return HeisElement.of(*(to_fraction(x) for x in raw))


# -- reps ---------------------------------------------------------------------

def _homomorphism_claim(rep_name: str) -> Claim:
    def compute(_inputs=None, _seed=""):
        return verify_homomorphism(get_representation(rep_name))
    return Claim(
        id=f"reps.homomorphism.{rep_name}",
        suite="reps",
        statement=(f"the {rep_name} entry table is a group homomorphism: "
                   "M(g) M(h) = M(g*h) as an exact polynomial identity"),
        run=lambda config: compute(),
        replay=compute,
    )


def _injectivity_claim(rep_name: str) -> Claim:
    def compute(_inputs=None, _seed=""):
        return verify_injectivity_generators(get_representation(rep_name))
    return Claim(
        id=f"reps.injectivity.{rep_name}",
        suite="reps",
        statement=(f"the {rep_name} table carries the bare coordinates "
                   "a, b, c, so the matrix determines the group element"),
        run=lambda config: compute(),
        replay=compute,
    )


# -- jordan -------------------------------------------------------------------

CENTER_PARTITION = [3, 2, 1, 1, 1, 1, 1]


def _jordan_center(_inputs=None, _seed=""):
    theta = get_representation("theta")
    mat = theta(HeisElement.of(0, 0, 1))
    nilpotent = mat - Matrix.identity(10)
    ranks = []
    power = Matrix.identity(10)
    while not power.is_zero():
        power = power * nilpotent
        ranks.append(power.rank())
    partition = jordan_partition(mat)
    ok = partition == CENTER_PARTITION and ranks == [3, 1, 0]
    witnesses = {"partition": partition, "nilpotent_rank_sequence": ranks,
                 "expected": CENTER_PARTITION}
    return (Certificate.ok if ok else Certificate.fail)(
        "jordan.center_case", witnesses)


def _jordan_sample_run(config: RunConfig) -> Certificate:
    stream = config.stream("jordan.unique_odd_largest")
    params = stream.distinct_triples(config.size("jordan"), nonzero=True)
    return _jordan_sample_compute({"parameters": params}, str(config.seed))


def _jordan_sample_compute(inputs, seed="") -> Certificate:
    params = _triples(inputs["parameters"])
    theta = get_representation("theta")
    histogram: dict[str, int] = {}
    failures = []
    for triple in params:
        partition = jordan_partition(theta(HeisElement.of(*triple)))
        histogram[str(partition)] = histogram.get(str(partition), 0) + 1
        largest = partition[0]
        unique = partition.count(largest) == 1
        if not (unique and largest % 2 == 1):
            failures.append({"parameter": list(triple),
                             "partition": partition})
    witnesses = {"sampled": len(params), "partition_histogram": histogram,
                 "failures": failures}
    ctor = Certificate.ok if not failures else Certificate.fail
    return ctor("jordan.unique_odd_largest", witnesses,
                inputs={"parameters": [list(p) for p in params]}, seed=seed)


# -- orbit --------------------------------------------------------------------

def _equivariance_run(config: RunConfig) -> Certificate:
    stream = config.stream("orbit.equivariance")
    pairs = [[stream.next_triple(), stream.next_triple()]
             for _ in range(config.size("equivariance"))]
    return _equivariance_compute({"pairs": pairs}, str(config.seed))


def _equivariance_compute(inputs, seed="") -> Certificate:
    pairs = [(tuple(to_fraction(x) for x in g), tuple(to_fraction(x) for x in h))
             for g, h in inputs["pairs"]]
    symbolic_ok = convexity.symbolic_equivariance_holds()
    failures = []
    for g_raw, h_raw in pairs:
        cert = convexity.equivariance_certificate(_element(g_raw),
                                                  _element(h_raw))
        if not cert.passed:
            failures.append({"g": list(g_raw), "h": list(h_raw)})
    witnesses = {"symbolic_identity": symbolic_ok,
                 "sampled_pairs": len(pairs), "failures": failures}
    ok = symbolic_ok and not failures
    ctor = Certificate.ok if ok else Certificate.fail
    return ctor("orbit.equivariance", witnesses,
                inputs={"pairs": [[list(g), list(h)] for g, h in pairs]},
                seed=seed)


def _limit_point_compute(inputs=None, seed="") -> Certificate:
    if inputs:
        ring = convexity.RAY_RING
        rays = [[ring.parse(p) for p in ray] for ray in inputs["rays"]]
        ts = [to_fraction(t) for t in inputs["t_values"]]
        return convexity.limit_point_certificate(rays, ts)
    return convexity.limit_point_certificate()


# -- hull ---------------------------------------------------------------------

def _load_frozen_sample(name: str) -> convexity.OrbitSample:
    return convexity.OrbitSample.from_csv((DATA_DIR / name).read_text(),
                                          seed="frozen")


def _hull_dimension_run(config: RunConfig) -> Certificate:
    frozen = _load_frozen_sample("hull_sample.csv")
    fresh_count = config.size("hull_fresh")
    fresh = [convexity.sample_orbit(10, config.seed + 1 + k, "hull")
             for k in range(fresh_count)]
    inputs = {"frozen": [list(p) for p in frozen.parameters],
              "fresh": [[list(p) for p in s.parameters] for s in fresh]}
    return _hull_dimension_compute(inputs, str(config.seed))


def _hull_dimension_compute(inputs, seed="") -> Certificate:
    frozen = convexity.OrbitSample(_triples(inputs["frozen"]), seed=seed)
    frozen_det = Matrix(frozen.lifts()).det()
    fresh_dets = []
    for raw in inputs["fresh"]:
        sample = convexity.OrbitSample(_triples(raw), seed=seed)
        fresh_dets.append(Matrix(sample.lifts()).det())
    ok = frozen_det != 0 and all(d != 0 for d in fresh_dets)
    witnesses = {"frozen_determinant": frozen_det,
                 "fresh_determinants": fresh_dets}
    ctor = Certificate.ok if ok else Certificate.fail
    return ctor("hull.dimension", witnesses, inputs=inputs, seed=seed)


def _hull_degenerate_compute(inputs=None, seed="") -> Certificate:
    if inputs:
        params = _triples(inputs["parameters"])
    else:
        params = [(Fraction(0), Fraction(0), Fraction(k))
                  for k in range(1, 11)]
    sample = convexity.OrbitSample(params)
    det = Matrix(sample.lifts()).det()
    witnesses = {"determinant": det}
    ctor = Certificate.ok if det == 0 else Certificate.fail
    return ctor("hull.degenerate_center", witnesses,
                inputs={"parameters": [list(p) for p in params]}, seed=seed)


def _extreme_points_compute(inputs=None, seed="") -> Certificate:
    if inputs:
        sample = convexity.OrbitSample(_triples(inputs["parameters"]),
                                       seed=seed)
    else:
        sample = _load_frozen_sample("extreme_sample.csv")
    verdicts = []
    functionals = []
    for i in range(len(sample)):
        cert = convexity.extreme_point_certificate(sample, i)
        verdicts.append(cert.passed)
        functionals.append(
            cert.witnesses.get("separating_functional")
            or {"weights": cert.witnesses.get("convex_combination_weights")})
    ok = all(verdicts)
    witnesses = {"points": len(sample), "all_extreme": ok,
                 "separating_functionals": functionals}
    ctor = Certificate.ok if ok else Certificate.fail
    return ctor("hull.extreme_points", witnesses,
                inputs={"parameters": [list(p) for p in sample.parameters]},
                seed=seed)


# -- restrict / growth --------------------------------------------------------

def _restriction_run(config: RunConfig) -> Certificate:
    return restriction.restriction_certificate(
        rederive=config.rederive_witnesses)


def _restriction_replay(inputs, _seed="") -> Certificate:
    return restriction.restriction_certificate(
        rederive=bool(inputs.get("rederived")))


# -- cone ---------------------------------------------------------------------

def _pd_preserved_run(config: RunConfig) -> Certificate:
    stream = config.stream("cone.pd_preserved")
    cases = []
    for _ in range(config.size("pd_checks")):
        form = _random_pd_form(stream)
        g = stream.next_triple()
        cases.append({"g": list(g), "form": [list(r) for r in form.m]})
    return _pd_preserved_compute({"cases": cases}, str(config.seed))


def _random_pd_form(stream: RandomStream) -> SymForm:
    # R^T R is positive definite whenever R is invertible.
    while True:
        r = Matrix([[Fraction(stream.next_int(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if r.det() != 0:
            return SymForm((r.transpose() * r).entries)


def _pd_preserved_compute(inputs, seed="") -> Certificate:
    failures = []
    for case in inputs["cases"]:
        g = _element(case["g"])
        form = SymForm([[to_fraction(x) for x in row]
                        for row in case["form"]])
        cert = pd_preservation_certificate(g, form)
        if not cert.passed:
            failures.append(case)
    witnesses = {"checked": len(inputs["cases"]), "failures": failures}
    ctor = Certificate.ok if not failures else Certificate.fail
    return ctor("cone.pd_preserved", witnesses, inputs=inputs, seed=seed)


def _parabolic_compute(_inputs=None, _seed="") -> Certificate:
    forms = {name: parabolic_fixed_form(name) for name in ("A", "B", "C")}
    gaps = {name: attraction_gaps(name) for name in ("A", "B", "C")}
    checks = {
        "rank_one": all(f.rank() == 1 for f in forms.values()),
        "semidefinite": all(f.is_positive_semidefinite()
                            for f in forms.values()),
        "A_B_distinct": forms["A"] != forms["B"],
        "C_shares_A_fixed_form": forms["C"] == forms["A"],
        "gaps_decreasing": all(g[0] > g[1] > g[2] for g in gaps.values()),
    }
    ok = all(value for key, value in checks.items()
             if key != "C_shares_A_fixed_form")
    witnesses = {
        "checks": checks,
        "fixed_forms": {k: [list(r) for r in f.m] for k, f in forms.items()},
        "attraction_gaps": gaps,
    }
    ctor = Certificate.ok if ok else Certificate.fail
    return ctor("cone.parabolic_fixed_points", witnesses)


def _flat_compute(_inputs=None, _seed="") -> Certificate:
    cert = flat_segment_certificate(parabolic_fixed_form("A"),
                                    parabolic_fixed_form("B"))
    return cert


# -- hilbert ------------------------------------------------------------------

def _hilbert_axioms_run(config: RunConfig) -> Certificate:
    stream = config.stream("hilbert.metric_axioms")
    instances = []
    for _ in range(config.size("hilbert")):
        dim = stream.next_int(1, 3)
        lows = [Fraction(stream.next_int(-5, -1)) for _ in range(dim)]
        highs = [Fraction(stream.next_int(1, 5)) for _ in range(dim)]
        def interior():
            return [lo + Fraction(stream.next_int(1, 9), 10) * (hi - lo)
                    for lo, hi in zip(lows, highs)]
        instances.append({"lows": lows, "highs": highs,
                          "x": interior(), "y": interior(), "z": interior()})
    return _hilbert_axioms_compute({"instances": instances},
                                   str(config.seed))


def _hilbert_axioms_compute(inputs, seed="") -> Certificate:
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
    witnesses = {"instances": len(inputs["instances"]), "failures": failures}
    ctor = Certificate.ok if not failures else Certificate.fail
    return ctor("hilbert.metric_axioms", witnesses, inputs=inputs, seed=seed)


def _cross_ratio_run(config: RunConfig) -> Certificate:
    stream = config.stream("hilbert.cross_ratio_invariance")
    elements = [stream.next_triple() for _ in range(config.size("cross_ratio"))]
    inputs = {
        "line_parameters": [[0, 0, 0], [1, 1, 1]],
        "mix_values": [0, 1, 2, 3],
        "elements": [list(g) for g in elements],
    }
    return _cross_ratio_compute(inputs, str(config.seed))


def _cross_ratio_compute(inputs, seed="") -> Certificate:
    p_param, q_param = (_element(raw) for raw in inputs["line_parameters"])
    p = convexity.orbit_lift(p_param)
    q = convexity.orbit_lift(q_param)
    points = []
    for t_raw in inputs["mix_values"]:
        t = to_fraction(t_raw)
        points.append([a + t * b for a, b in zip(p, q)])
    base = cross_ratio(*points)
    theta = get_representation("theta")
    failures = []
    for raw in inputs["elements"]:
        mat = theta(_element(raw))
        moved = [mat.apply(v) for v in points]
        if cross_ratio(*moved) != base:
            failures.append({"g": list(raw)})
    witnesses = {"base_cross_ratio": base,
                 "elements_checked": len(inputs["elements"]),
                 "failures": failures}
    ctor = Certificate.ok if not failures else Certificate.fail
    return ctor("hilbert.cross_ratio_invariance", witnesses, inputs=inputs,
                seed=seed)


# -- registry -----------------------------------------------------------------

def _simple(claim_id, suite, statement, compute) -> Claim:
    return Claim(claim_id, suite, statement,
                 run=lambda config: compute(),
                 replay=lambda inputs, seed: compute(inputs, seed))


CLAIMS: tuple[Claim, ...] = (
    _homomorphism_claim("theta"),
    _homomorphism_claim("rho6"),
    _homomorphism_claim("rho14"),
    _injectivity_claim("theta"),
    _injectivity_claim("rho6"),
    _simple("jordan.center_case", "jordan",
            "the central generator's image has Jordan blocks "
            "[3,2,1,1,1,1,1], read off the rank sequence of its "
            "nilpotent part",
            lambda inputs=None, seed="": _jordan_center(inputs, seed)),
    Claim("jordan.unique_odd_largest", "jordan",
          "every sampled nontrivial element's image has a unique largest "
          "Jordan block, and that block has odd size",
          run=_jordan_sample_run, replay=_jordan_sample_compute),
    Claim("orbit.formula", "orbit",
          "the matrix of g applied to the lifted origin equals the closed "
          "orbit formula ((a^4+b^4)/24 + c^2, bc, c, a^3/6, a^2/2, a, "
          "b^3/6, b^2/2, b, 1)",
          run=lambda config: convexity.orbit_formula_certificate(),
          replay=lambda inputs, seed: convexity.orbit_formula_certificate()),
    Claim("orbit.equivariance", "orbit",
          "acting by the matrix of g maps the orbit point of h to the "
          "orbit point of g*h, symbolically and on sampled pairs",
          run=_equivariance_run, replay=_equivariance_compute),
    Claim("orbit.limit_point", "orbit",
          "along rays to infinity the first coordinate dominates every "
          "other, so the orbit accumulates only at [1:0:...:0]",
          run=lambda config: _limit_point_compute(),
          replay=_limit_point_compute),
    Claim("orbit.fixed_at_infinity", "orbit",
          "the group fixes [1:0:...:0] and maps the hyperplane at "
          "infinity x10 = 0 to itself",
          run=lambda config: convexity.fixed_structure_certificate(),
          replay=lambda inputs, seed: convexity.fixed_structure_certificate()),
    Claim("hull.dimension", "hull",
          "ten lifted orbit points have nonzero determinant, so the "
          "orbit hull has interior of full dimension 9",
          run=_hull_dimension_run, replay=_hull_dimension_compute),
    Claim("hull.degenerate_center", "hull",
          "orbit points of central elements are degenerate: their ten "
          "lifts have determinant 0",
          run=lambda config: _hull_degenerate_compute(),
          replay=_hull_degenerate_compute),
    Claim("hull.proper_convexity", "hull",
          "the first orbit coordinate is a positive combination of even "
          "powers, so the closed hull lies in {x1 >= 0} and misses "
          "{x1 = -1}",
          run=lambda config: convexity.proper_convexity_certificate(),
          replay=lambda inputs, seed:
              convexity.proper_convexity_certificate()),
    Claim("hull.extreme_points", "hull",
          "each shipped orbit point lies outside the convex hull of the "
          "others, certified by an exact separating functional",
          run=lambda config: _extreme_points_compute(),
          replay=_extreme_points_compute),
    Claim("restrict.conjugate_to_theta", "restrict",
          "the equations x6=x10=x14, x5=x13, x3=2*x12 cut an invariant "
          "subspace of the 14-dimensional action whose induced 10x10 "
          "action is conjugate to the 10-dimensional table by the "
          "witness T",
          run=_restriction_run, replay=_restriction_replay),
    Claim("growth.block_degrees", "growth",
          "powers of the first two generators grow quadratically inside "
          "the 6x6 block and quartically in the glued chains; the "
          "central generator stays quadratic",
          run=lambda config: restriction.growth_certificate(),
          replay=lambda inputs, seed: restriction.growth_certificate()),
    Claim("cone.sym_square_match", "cone",
          "the 6x6 table is the congruence action g S g^T on quadratic "
          "forms, in an explicit monomial basis found by search",
          run=lambda config: sym_square_match_certificate(),
          replay=lambda inputs, seed: sym_square_match_certificate()),
    Claim("cone.pd_preserved", "cone",
          "the 6x6 action keeps sampled positive-definite forms positive "
          "definite and agrees with the congruence action",
          run=_pd_preserved_run, replay=_pd_preserved_compute),
    Claim("cone.parabolic_fixed_points", "cone",
          "each generator has an attracting rank-1 semidefinite fixed "
          "form; the first two generators' fixed forms are distinct and "
          "iteration contracts toward them",
          run=lambda config: _parabolic_compute(),
          replay=_parabolic_compute),
    Claim("cone.boundary_flat", "cone",
          "the straight segment between the two distinct fixed forms "
          "stays semidefinite with determinant zero: a flat in the cone "
          "boundary",
          run=lambda config: _flat_compute(),
          replay=_flat_compute),
    Claim("hilbert.metric_axioms", "hilbert",
          "on sampled rational polytopes the Hilbert cross-ratio "
          "satisfies R >= 1 with equality iff the points coincide, "
          "symmetry, and the multiplicative triangle inequality",
          run=_hilbert_axioms_run, replay=_hilbert_axioms_compute),
    Claim("hilbert.cross_ratio_invariance", "hilbert",
          "the cross ratio of four collinear points is unchanged by "
          "every sampled group matrix",
          run=_cross_ratio_run, replay=_cross_ratio_compute),
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
    certificates = []
    for claim in CLAIMS:
        if claim.suite not in selected:
            continue
        try:
            cert = claim.run(config)
        except Exception:
            cert = Certificate.fail(
                claim.id,
                witnesses={"error": traceback.format_exc(limit=20)},
                seed=str(config.seed))
        cert.claim = claim.id
        cert.anchor = claim.statement
        cert.timestamp = timestamp
        if not cert.seed:
            cert.seed = str(config.seed)
        path = out / f"{claim.id}.json"
        _atomic_write(path, cert.to_json())
        certificates.append(cert)
        rows.append({"claim": claim.id, "suite": claim.suite,
                     "verdict": cert.verdict, "statement": claim.statement,
                     "file": path.name})

    overall = PASS if all(r["verdict"] == PASS for r in rows) else FAIL
    report = {
        "overall": overall,
        "claims": rows,
        "suites_run": selected,
        "config": {"seed": config.seed, "suites": list(config.suites),
                   "sample_sizes": {k: config.size(k)
                                    for k in DEFAULT_SAMPLE_SIZES},
                   "rederive_witnesses": config.rederive_witnesses},
        "toolchain": {"package_version": __version__,
                      "python": sys.version.split()[0]},
        "generated_at": timestamp,
    }
    if not rows:
        report["warning"] = "no suites selected; overall verdict is vacuous"
    _atomic_write(out / "report.json", _report_json(report))
    _atomic_write(out / "report.md", _report_markdown(report))
    return report


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
    lines.append("| Claim | Suite | Verdict | Statement |")
    lines.append("|---|---|---|---|")
    for row in report["claims"]:
        lines.append(f"| `{row['claim']}` | {row['suite']} | "
                     f"{row['verdict']} | {row['statement']} |")
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
    """Recompute a stored certificate from its recorded inputs and seed;
    MATCH iff the recomputation reproduces it (timestamp aside)."""
    import json
    data = json.loads(Path(path).read_text())
    stored = Certificate.from_dict(data)
    claim = CLAIMS_BY_ID.get(stored.claim)
    if claim is None:
        raise KeyError(f"unknown claim id {stored.claim!r}")
    digest_ok = stored.inputs_digest() == data["inputs_digest"]
    try:
        recomputed = claim.replay(stored.inputs, stored.seed)
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed stored inputs for {stored.claim}: "
                         f"{exc}") from exc
    recomputed.claim = claim.id
    recomputed.anchor = claim.statement
    if not recomputed.seed:
        recomputed.seed = stored.seed
    same = digest_ok and recomputed.comparable() == stored.comparable()
    detail = {
        "claim": stored.claim,
        "stored_verdict": stored.verdict,
        "recomputed_verdict": recomputed.verdict,
        "inputs_digest_intact": digest_ok,
    }
    return (MATCH if same else MISMATCH), detail
