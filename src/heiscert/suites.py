"""Claim registry, suite runner and certificate replay.

Every claim has one shape: a stable id, its suite, a one-line statement,
its inputs, and check(**inputs) -> (ok, witnesses), so a check names the
inputs it reads as parameters and a claim without inputs takes none.  A
sampled claim draws its inputs with sample(stream, count), where the
stream is split off the seed with the claim id as its label, so the
streams of different claims are independent and results do not depend
on execution order, and the count is the constant
DEFAULT_SAMPLE_SIZES[claim id]; a fixed claim computes its own inputs,
and the hull claims draw their orbit samples at seed 0.  Either way a
check sees only values its claim drew or computed, never stored JSON.
`_claim` turns that pair into the registry's run(config) entry point,
and `_certificate` is the one place a Certificate is built.

Replay re-runs the claim at the stored seed and compares the JSON text
of the two certificates, so it never evaluates stored inputs: a sampled
certificate matches only if its inputs are the ones its seed draws, and
a fixed one only if its inputs are the claim's own.  The runner writes
one JSON certificate per claim plus report.json/report.md, whose rows
are in suite order; the claims run concurrently in forked workers, one
per CPU, or in the calling process when it has one CPU (`taskset -c
0`).  A crash inside a claim becomes a FAIL certificate, in a run and
in a replay alike, never a silent skip.  Each claim's wall time goes
into its report row only, never into a certificate.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from pathlib import Path

from . import __version__
from . import convexity, restriction
from .certs import FAIL, PASS, Certificate
from .cone import (SymForm, attraction_gaps, det3, flat_segment_certificate,
                   parabolic_fixed_form, pd_preservation_certificate,
                   sym_square_match_certificate)
from .heis import (DATA_DIR, HeisElement, get_representation, heis_mul,
                   symbolic_pair, verify_homomorphism,
                   verify_injectivity_generators)
from .linalg import Matrix, integer_det, integer_product, jordan_partition
from .metric import box, cross_ratio, hilbert_log_argument
from .sampler import RandomStream, check_seed

SUITE_ORDER = ("reps", "jordan", "orbit", "hull", "restrict", "growth",
               "cone", "hilbert")

DEFAULT_SAMPLE_SIZES = {
    "jordan.unique_odd_largest": 200,
    "orbit.equivariance": 25,
    "hull.dimension": 20,
    "cone.pd_preserved": 200,
    "hilbert.metric_axioms": 50,
    "hilbert.cross_ratio_invariance": 50,
}


class RunConfig:
    def __init__(self, seed: int = 0, output_dir: Path = Path("certificates"),
                 suites: tuple = SUITE_ORDER):
        self.seed = check_seed(seed)
        self.output_dir = output_dir
        self.suites = suites


@dataclass(frozen=True)
class Claim:
    id: str
    suite: str
    statement: str
    run: callable         # RunConfig -> Certificate
    replay: callable      # the same function as run


def _certificate(claim_id: str, statement: str, ok: bool, witnesses: dict,
                 inputs: dict, seed: str) -> Certificate:
    return Certificate(claim_id, PASS if ok else FAIL, witnesses, inputs,
                       seed, anchor=statement)


def _claim(claim_id: str, statement: str, check, sample=None,
           inputs=dict) -> Claim:
    """A registry entry from check(**inputs) -> (ok, witnesses) and
    either sample(stream, count) -> inputs (a sampled claim) or inputs()
    -> inputs (a fixed claim; the default has none), inputs being a dict
    keyed by check's parameter names.  A sampled claim's stream is split
    off the run seed with the claim id as label, and its count is
    DEFAULT_SAMPLE_SIZES[claim_id].  The suite is the id's first
    component."""
    def run(config: RunConfig) -> Certificate:
        claim_inputs = (sample(RandomStream(config.seed).split(claim_id),
                               DEFAULT_SAMPLE_SIZES[claim_id])
                        if sample else inputs())
        ok, witnesses = check(**claim_inputs)
        return _certificate(claim_id, statement, ok, witnesses, claim_inputs,
                            str(config.seed))

    # Replay is the run at the stored seed; the field stays only because
    # perfbench/tracing.py wraps both run and replay.
    return Claim(claim_id, claim_id.partition(".")[0], statement, run, run)


def _representation(name: str):
    """inputs() naming one shipped entry table."""
    return partial(dict, representation=name)


# -- reps ---------------------------------------------------------------------

def _homomorphism(representation: str):
    return verify_homomorphism(get_representation(representation))


def _injectivity(representation: str):
    return verify_injectivity_generators(get_representation(representation))


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


def _jordan_center():
    ranks = get_representation("theta").nilpotent_ranks(
        HeisElement.of(0, 0, 1))
    partition = jordan_partition(ranks)
    ok = partition == CENTER_PARTITION and ranks == [10, 3, 1, 0]
    # The stored sequence starts at rank(N); rank(N^0) is the dimension.
    return ok, {"partition": partition, "nilpotent_rank_sequence": ranks[1:],
                "expected": CENTER_PARTITION}


def _jordan_sample(stream: RandomStream, count: int) -> dict:
    return {"parameters": stream.distinct_triples(count, nonzero=True)}


def _jordan_unique_odd(parameters: list[tuple]):
    theta = get_representation("theta")
    histogram: dict[str, int] = {}
    failures = []
    for triple in parameters:
        partition = jordan_partition(
            theta.nilpotent_ranks(HeisElement.of(*triple)))
        key = str(partition)
        histogram[key] = histogram.get(key, 0) + 1
        largest = partition[0]
        unique = partition.count(largest) == 1
        if not (unique and largest % 2 == 1):
            failures.append({"parameter": list(triple),
                             "partition": partition})
    return not failures, {"sampled": len(parameters),
                          "partition_histogram": histogram,
                          "failures": failures}


# -- orbit --------------------------------------------------------------------

def _equivariance_sample(stream: RandomStream, count: int) -> dict:
    return {"pairs": [[stream.next_triple(), stream.next_triple()]
                      for _ in range(count)]}


def _equivariance(pairs: list[list[tuple]]):
    theta = get_representation("theta")
    # Lifts compared as vectors in the affine chart x10 = 1.
    g, h = symbolic_pair()
    symbolic_ok = theta(g).apply(convexity.orbit_lift(h)) == \
        convexity.orbit_lift(heis_mul(g, h))
    plan = convexity.ORBIT_LIFT_PLAN
    failures = []
    for raw_g, raw_h in pairs:
        g, h = HeisElement.of(*raw_g), HeisElement.of(*raw_h)
        # theta(g) = R/d, lift(h) = L/e, lift(g*h) = M/f: R L f == M d e.
        rows, d = theta.integer_image(g)
        lift, e = plan.integer_values(h)
        target, f = plan.integer_values(heis_mul(g, h))
        image = integer_product(rows, ([x] for x in lift))
        if any(x * f != y * d * e for (x,), y in zip(image, target)):
            failures.append({"g": list(raw_g), "h": list(raw_h)})
    return symbolic_ok and not failures, {"symbolic_identity": symbolic_ok,
                                          "sampled_pairs": len(pairs),
                                          "failures": failures}


# -- hull ---------------------------------------------------------------------

def _lift_det(raw) -> Fraction:
    """Determinant of the ten distinct orbit lifts of raw (else raises),
    det(R) / prod(d_i) for the lifts R_i / d_i from the orbit plan, R's
    int rows handed to integer_det as they come."""
    plan = convexity.ORBIT_LIFT_PLAN
    rows, dens = zip(*(plan.integer_values(HeisElement(*p))
                       for p in convexity.OrbitSample(raw).parameters))
    return Fraction(integer_det(rows), prod(dens))


def _hull_dimension_sample(stream: RandomStream, count: int) -> dict:
    frozen = convexity.sample_orbit(*convexity.HULL_SAMPLE)
    return {"frozen": frozen.parameters,
            "fresh": [stream.distinct_triples(10) for _ in range(count)]}


def _hull_dimension(frozen: list[tuple], fresh: list[list[tuple]]):
    frozen_det = _lift_det(frozen)
    fresh_dets = [_lift_det(raw) for raw in fresh]
    ok = frozen_det != 0 and all(d != 0 for d in fresh_dets)
    return ok, {"frozen_determinant": frozen_det,
                "fresh_determinants": fresh_dets}


def _degenerate_center_inputs() -> dict:
    return {"parameters": [(Fraction(0), Fraction(0), Fraction(k))
                           for k in range(1, 11)]}


def _degenerate_center(parameters: list[tuple]):
    det = _lift_det(parameters)
    return det == 0, {"determinant": det}


def _extreme_points_inputs() -> dict:
    return {"parameters": convexity.sample_orbit(
        *convexity.EXTREME_SAMPLE).parameters}


def _extreme_points(parameters: list[tuple]):
    # Only a point whose shipped functional fails goes to the LP.
    sample = convexity.OrbitSample(parameters)
    shipped = {row[:3]: list(row[3:]) for row in Matrix.from_text(
        (DATA_DIR / "extreme_functionals.tsv").read_text()).entries}
    results = [(True, shipped[p]) if p in shipped
               and convexity.separates(sample, i, shipped[p])
               else convexity.extreme_point_certificate(sample, i)
               for i, p in enumerate(sample.parameters)]
    ok = all(extreme for extreme, _ in results)
    return ok, {"points": len(sample), "all_extreme": ok,
                "separating_functionals": [entry for _, entry in results]}


# -- restrict / growth --------------------------------------------------------

# Looked up at call time: the benchmark tracer rebinds this traced name.
def _restriction():
    return restriction.restriction_certificate()


# -- cone ---------------------------------------------------------------------

# Looked up at call time: the benchmark tracer rebinds this traced name.
def _sym_square_match(representation: str):
    return sym_square_match_certificate(get_representation(representation))


def _pd_preserved_sample(stream: RandomStream, count: int) -> dict:
    cases = []
    for _ in range(count):
        form = _random_pd_form(stream)
        g = stream.next_triple()
        cases.append({"g": list(g), "form": form})
    return {"cases": cases}


# The 55 values an entry of R^T R can take for R in [-3, 3]^(3x3),
# GRAM_VALUES[x + 27] = Fraction(x): a diagonal entry is a sum of three
# squares, at most 27, and an off-diagonal one a sum of three products.
GRAM_VALUES = tuple(map(Fraction, range(-27, 28)))


def _random_pd_form(stream: RandomStream) -> list[list[Fraction]]:
    # R^T R is positive definite whenever det R != 0.  Its six distinct
    # entries are the dot products of R's columns (a, d, g), (b, e, h)
    # and (c, f, i), read as Fractions from GRAM_VALUES, which the
    # certificate writer writes as "p/q" strings.
    while True:
        a, b, c, d, e, f, g, h, i = r = stream.next_ints(9, -3, 3)
        if det3((r[:3], r[3:6], r[6:])):
            p, q, t, u, v, w = [GRAM_VALUES[x + 27] for x in (
                a * a + d * d + g * g, a * b + d * e + g * h,
                a * c + d * f + g * i, b * b + e * e + h * h,
                b * c + e * f + h * i, c * c + f * f + i * i)]
            return [[p, q, t], [q, u, v], [t, v, w]]


def _pd_preserved(cases: list[dict]):
    failures = [case for case in cases if not pd_preservation_certificate(
        HeisElement.of(*case["g"]), SymForm(case["form"]))]
    return not failures, {"checked": len(cases),
                          "failures": failures}


def _parabolic():
    forms = {name: parabolic_fixed_form(name) for name in ("A", "B", "C")}
    gaps = {name: attraction_gaps(name, form) for name, form in forms.items()}
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


def _flat(f1: list[list[Fraction]], f2: list[list[Fraction]]):
    return flat_segment_certificate(SymForm(f1), SymForm(f2))


# -- hilbert ------------------------------------------------------------------

# Every value the Hilbert sampler draws, TENTHS[x + 50] = Fraction(x, 10):
# a box side lo or hi in [-5, 5] is 10 lo or 10 hi tenths, and an
# interior coordinate lo + k/10 (hi - lo), k in [1, 9], is
# 10 lo + k (hi - lo) tenths, within [-44, 44].
TENTHS = tuple(Fraction(x, 10) for x in range(-50, 51))


def _hilbert_axioms_sample(stream: RandomStream, count: int) -> dict:
    instances = []
    for _ in range(count):
        dim = stream.next_int(1, 3)
        lows = stream.next_ints(dim, -5, -1)
        highs = stream.next_ints(dim, 1, 5)
        steps = stream.next_ints(3 * dim, 1, 9)  # x's, then y's, then z's
        x, y, z = ([TENTHS[50 + 10 * lo + k * (hi - lo)]
                    for lo, hi, k in zip(lows, highs, steps[i:i + dim])]
                   for i in range(0, 3 * dim, dim))
        instances.append({"lows": [TENTHS[50 + 10 * lo] for lo in lows],
                          "highs": [TENTHS[50 + 10 * hi] for hi in highs],
                          "x": x, "y": y, "z": z})
    return {"instances": instances}


def _hilbert_axioms(instances: list[dict]):
    failures = []
    for idx, instance in enumerate(instances):
        x, y, z = instance["x"], instance["y"], instance["z"]
        faces = box(instance["lows"], instance["highs"])
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
    return not failures, {"instances": len(instances),
                          "failures": failures}


def _cross_ratio_sample(stream: RandomStream, count: int) -> dict:
    elements = [stream.next_triple() for _ in range(count)]
    return {
        "line_parameters": [[0, 0, 0], [1, 1, 1]],
        "mix_values": [0, 1, 2, 3],
        "elements": [list(g) for g in elements],
    }


def _cross_ratio(line_parameters: list[list[int]], mix_values: list[int],
                 elements: list[list[Fraction]]):
    (p, dp), (q, dq) = (
        convexity.ORBIT_LIFT_PLAN.integer_values(HeisElement.of(*raw))
        for raw in line_parameters)
    # Point t is dp dq (p / dp + t q / dq), the same projective point.
    points = [[x * dq + t * y * dp for x, y in zip(p, q)] for t in mix_values]
    base = cross_ratio(*points)
    theta = get_representation("theta")
    n = theta.dimension
    # Every element's int rows in one stack times the four points as
    # columns, read back n rows each.
    stacked = integer_product(
        [row for raw in elements
         for row in theta.integer_image(HeisElement.of(*raw))[0]],
        zip(*points))
    failures = []
    for k, raw in enumerate(elements):
        moved = zip(*stacked[k * n:(k + 1) * n])
        if cross_ratio(*moved) != base:
            failures.append({"g": list(raw)})
    return not failures, {"base_cross_ratio": base,
                          "elements_checked": len(elements),
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
           convexity.orbit_formula_certificate),
    _claim("orbit.equivariance",
           "acting by the matrix of g maps the orbit point of h to the "
           "orbit point of g*h, symbolically and on sampled pairs",
           _equivariance, sample=_equivariance_sample),
    _claim("orbit.limit_point",
           "along rays to infinity the first coordinate dominates every "
           "other, so the orbit accumulates only at [1:0:...:0]",
           convexity.limit_point_certificate,
           inputs=partial(dict, rays=convexity.DEFAULT_RAYS,
                          t_values=convexity.DEFAULT_RAY_TS)),
    _claim("orbit.fixed_at_infinity",
           "the group fixes [1:0:...:0] and maps the hyperplane at "
           "infinity x10 = 0 to itself",
           convexity.fixed_structure_certificate),
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
           convexity.proper_convexity_certificate),
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
           restriction.growth_certificate),
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
    """Run the selected suites' claims; write one JSON certificate per
    claim plus report.json and report.md, whose rows are in suite order.
    Returns the report dictionary.  The claims run concurrently, in one
    forked worker per CPU of this process's affinity mask and at most
    one per claim, while this process only coordinates; with one CPU or
    one claim (under `taskset -c 0`, say) they run in this process.  An
    exception raised in a worker outside a claim reaches the caller with
    its type, and a worker that exits without sending its rows raises
    RuntimeError; either way the output directory holds no report, not
    even an earlier run's."""
    unknown = set(config.suites) - set(SUITE_ORDER)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    selected = [s for s in SUITE_ORDER if s in config.suites]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("report.json", "report.md"):
        (out / name).unlink(missing_ok=True)
    timestamp = _utc_timestamp(time.time_ns())

    indices = [i for i, claim in enumerate(CLAIMS) if claim.suite in selected]
    # No affinity mask (macOS, Windows): run in this process.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(affinity(0))[:len(indices)] if affinity else []
    if len(cpus) > 1:
        rows = _run_pooled(cpus, indices, config, out, timestamp)
    else:
        rows = [_run_claim(CLAIMS[i], config, out, timestamp)
                for i in indices]

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


def _run_claim(claim: Claim, config: RunConfig, out: Path,
               timestamp: str) -> dict:
    """Run one claim, write its certificate and return its report row."""
    start = time.perf_counter()
    cert = _guarded(claim, claim.run, config)
    wall_s = time.perf_counter() - start
    cert.timestamp = timestamp
    path = out / f"{claim.id}.json"
    _atomic_write(path, cert.to_json())
    return {"claim": claim.id, "suite": claim.suite,
            "verdict": cert.verdict, "statement": claim.statement,
            "file": path.name, "wall_s": wall_s}


def _run_pooled(cpus: list[int], indices: list[int], config: RunConfig,
                out: Path, timestamp: str) -> list[dict]:
    """The rows of CLAIMS[i] for i in indices, in that order, from one
    forked _worker per CPU in cpus, which take the indices from one
    pipe.  When a worker fails, the others are killed; every worker is
    reaped before this returns or raises."""
    tasks, feed = os.pipe()
    os.write(feed, bytes(indices))
    os.close(feed)
    workers = {}
    try:
        for cpu in cpus:
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(cpu, tasks, writer, config, out, timestamp)
            os.close(writer)
            workers[pid] = open(reader, "rb")
        rows = {}
        for pid, pipe in list(workers.items()):
            with pipe:
                message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if status:
                raise _worker_error(status, message)
            rows.update(json.loads(message))
        return [rows[CLAIMS[i].id] for i in indices]
    finally:
        os.close(tasks)
        for pid, pipe in workers.items():
            import signal
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _worker(cpu: int, tasks: int, results: int, config: RunConfig,
            out: Path, timestamp: str) -> None:
    """A forked worker; never returns.  Pinned to cpu, it runs CLAIMS[i]
    for each index i it reads from tasks until the pipe is empty, writes
    its rows to results as one JSON object keyed by claim id and exits
    0.  An exception outside a claim is written instead, pickled with
    its traceback, and the exit status is 1; anything else exits 3."""
    status = 3
    try:
        try:
            os.sched_setaffinity(0, {cpu})
            rows = {}
            while index := os.read(tasks, 1):
                claim = CLAIMS[index[0]]
                rows[claim.id] = _run_claim(claim, config, out, timestamp)
            message, code = json.dumps(rows).encode(), 0
        except Exception as exc:
            import pickle
            import traceback
            message, code = pickle.dumps((exc, traceback.format_exc())), 1
        with open(results, "wb") as pipe:
            pipe.write(message)
        status = code
    finally:
        os._exit(status)


def _worker_error(status: int, message: bytes) -> Exception:
    """The exception a worker sent with exit status 1, caused by its
    traceback, or a RuntimeError for a worker that sent none."""
    if status == 1:
        import pickle
        exc, text = pickle.loads(message)
        exc.__cause__ = RuntimeError(f"raised in a worker process:\n{text}")
        return exc
    return RuntimeError(f"a worker process exited with status {status} "
                        "without sending its report rows")


def _utc_timestamp(ns: int) -> str:
    """The text datetime.now(timezone.utc).isoformat() gives at ns
    nanoseconds after the epoch: microseconds floored, and left out at a
    whole second."""
    seconds, micro = divmod(ns // 1000, 10**6)
    text = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{text}.{micro:06d}+00:00" if micro else f"{text}+00:00"


def _guarded(claim: Claim, entry, config: RunConfig) -> Certificate:
    """entry(config), entry being claim's run or replay, or a FAIL
    certificate carrying the traceback if it raises; run and replay both
    go through here, so a crashed claim's certificate replays to MATCH."""
    try:
        return entry(config)
    except Exception:
        import traceback
        return _certificate(claim.id, claim.statement, False,
                            {"error": traceback.format_exc(limit=20)}, {},
                            str(config.seed))


def _report_json(report: dict) -> str:
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
    lines.append("A row's wall time includes any one-off shared work that "
                 "its claim is the first in its process to trigger, such "
                 "as compiling theta's Jordan power plan; when claims run "
                 "in worker processes, that work is paid once in each "
                 "worker that needs it.")
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
    the rerun reproduces it as JSON (timestamp aside), which
    Certificate.reproduced_by decides; a stored body that differs is
    validated, and one holding a float or nested too deeply raises
    ValueError.  So does a seed that is not an integer in [0, 2**64)."""
    # Nesting too deep to parse, or to convert (see reproduced_by), is
    # malformed.
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError as exc:
        raise ValueError("stored certificate is nested too deeply") from exc
    stored = Certificate.from_dict(data)
    claim = CLAIMS_BY_ID.get(stored.claim)
    if claim is None:
        raise KeyError(f"unknown claim id {stored.claim!r}")
    # A run writes str(config.seed) for a seed in [0, 2**64); anything
    # else is malformed.
    seed = stored.seed
    if str(int(seed)) != seed:
        raise ValueError(f"stored seed {seed!r} is not an integer")
    config = RunConfig(seed=int(seed))
    recomputed = _guarded(claim, claim.replay, config)
    same, digest_ok = stored.reproduced_by(recomputed, data["inputs_digest"])
    detail = {
        "claim": stored.claim,
        "stored_verdict": stored.verdict,
        "recomputed_verdict": recomputed.verdict,
        "inputs_digest_intact": digest_ok,
    }
    return (MATCH if same else MISMATCH), detail
