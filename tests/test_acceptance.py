"""Acceptance gate: every top-level claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them all) and asserts exactly; all arithmetic is exact rational, so
"tolerance" everywhere means equality or a strict rational inequality.
"""

import json
from fractions import Fraction

from heiscert.certs import PASS
from heiscert.convexity import (DEFAULT_RAY_TS, ORBIT_FORMULA, OrbitSample,
                                extreme_point_certificate, lift_origin,
                                limit_point_certificate, nonneg_certificate,
                                sample_orbit)
from heiscert.cone import (flat_segment_certificate, parabolic_fixed_form,
                           pd_preservation_certificate,
                           sym_square_match_certificate)
from heiscert.heis import (DATA_DIR, ENTRY_RING, HeisElement,
                           get_representation, verify_homomorphism)
from heiscert.linalg import Matrix
from heiscert.metric import box, cross_ratio, hilbert_log_argument
from heiscert.restriction import (growth_certificate,
                                  restriction_certificate,
                                  subspace_equations)
from heiscert.sampler import RandomStream
from heiscert.suites import RunConfig, run_suite
from test_heis import rational_image, rational_lift
from test_linalg import _rational_partition

THETA = get_representation("theta")


def _lift_det(sample: OrbitSample) -> Fraction:
    """The determinant of the sample's Fraction lifts, one row each."""
    return Matrix([rational_lift(p) for p in sample.parameters]).det()


def report(number: int, title: str, ok: bool):
    print(f"criterion {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({title}) failed"


def test_criterion_01_homomorphism_identities():
    ok = all(verify_homomorphism(get_representation(name))[0]
             for name in ("theta", "rho6", "rho14"))
    report(1, "homomorphism identities for all three tables", ok)


def test_criterion_02_orbit_formula():
    g = HeisElement.symbolic(ENTRY_RING)
    column = THETA(g).apply([ENTRY_RING.const(x) for x in lift_origin()])
    expected = list(ORBIT_FORMULA) + [ENTRY_RING.one()]
    report(2, "symbolic orbit formula", column == expected)


def test_criterion_03_jordan_claim():
    # The rational matrices' powers are multiplied out here, not read off
    # the power plan, so this cross-checks the claim's route.
    center = _rational_partition(rational_image(THETA, (0, 0, 1)))
    nilpotent = rational_image(THETA, (0, 0, 1)) - Matrix.identity(10)
    rank_oracle = [nilpotent.rank(), (nilpotent * nilpotent).rank(),
                   (nilpotent * nilpotent * nilpotent).rank()]
    ok = center == [3, 2, 1, 1, 1, 1, 1] and rank_oracle == [3, 1, 0]
    stream = RandomStream(0).split("acceptance-jordan")
    for triple in stream.distinct_triples(200, nonzero=True):
        partition = _rational_partition(rational_image(THETA, triple))
        largest = partition[0]
        ok = ok and partition.count(largest) == 1 and largest % 2 == 1
    report(3, "unique odd largest Jordan block on 200 samples", ok)


def test_criterion_04_hull_dimension():
    frozen = OrbitSample.from_csv((DATA_DIR / "hull_sample.csv").read_text())
    ok = _lift_det(frozen) != 0
    for seed in range(1, 21):
        ok = ok and _lift_det(sample_orbit(10, seed, "hull")) != 0
    center = OrbitSample([(Fraction(0), Fraction(0), Fraction(k))
                          for k in range(1, 11)])
    ok = ok and _lift_det(center) == 0
    report(4, "hull determinants: frozen and 20 fresh nonzero, "
              "center degenerate", ok)


def test_criterion_05_proper_convexity():
    ok, _ = nonneg_certificate(ORBIT_FORMULA[0])
    report(5, "syntactic nonnegativity of the leading orbit coordinate",
           ok)


def test_criterion_06_fixed_structure_at_infinity():
    table = THETA.table
    one, zero = ENTRY_RING.one(), ENTRY_RING.zero()
    ok = table[0, 0] == one
    ok = ok and all(table[i, 0] == zero for i in range(1, 10))
    ok = ok and table[9, 9] == one
    ok = ok and all(table[9, j] == zero for j in range(9))
    report(6, "first column and last row fix the point and hyperplane "
              "at infinity", ok)


def test_criterion_07_limit_point():
    ok, witnesses = limit_point_certificate()
    ok = ok and DEFAULT_RAY_TS[-1] == 1000
    for ray_report in witnesses["rays"]:
        ok = ok and ray_report["ratios"][-1] < Fraction(1, 1000)
        lead = ray_report["leading_degree"]
        ok = ok and all(d == "-inf" or d < lead
                        for d in ray_report["other_degrees"])
    report(7, "domination along the three shipped rays at t = 1000", ok)


def test_criterion_08_restriction():
    ok = subspace_equations().rank() == 4
    passed, witnesses = restriction_certificate()
    ok = ok and passed
    checks = witnesses["checks"]
    ok = ok and checks["subspace_invariant"] and checks["conjugate_to_theta"]
    report(8, "invariant subspace restricts to the 10-dimensional table "
              "via the frozen witness", ok)


def test_criterion_09_growth():
    ok, witnesses = growth_certificate()
    for gen in ("A", "B"):
        ok = ok and witnesses[gen] == {"six_block_degree": 2,
                                       "added_blocks_degree": 4}
    report(9, "quadratic 6-block growth versus quartic chain growth", ok)


def test_criterion_10_cone_picture():
    ok = sym_square_match_certificate(get_representation("rho6"))[0]
    stream = RandomStream(0).split("acceptance-pd")
    count = 0
    while count < 200:
        r = Matrix([[Fraction(stream.next_int(-3, 3)) for _ in range(3)]
                    for _ in range(3)])
        if r.det() == 0:
            continue
        count += 1
        from heiscert.cone import SymForm
        form = SymForm((r.transpose() * r).entries)
        g = HeisElement.of(*stream.next_triple())
        ok = ok and pd_preservation_certificate(g, form)
    fa, fb = parabolic_fixed_form("A"), parabolic_fixed_form("B")
    ok = ok and fa != fb and all(f.matrix().rank() == 1 for f in (fa, fb))
    ok = ok and flat_segment_certificate(fa, fb)[0]
    report(10, "symmetric-square match, 200 PD checks, distinct rank-1 "
               "fixed forms in a flat", ok)


def test_criterion_11_extreme_points():
    sample = OrbitSample.from_csv(
        (DATA_DIR / "extreme_sample.csv").read_text())
    ok = len(sample) == 20
    for index in range(len(sample)):
        ok = ok and extreme_point_certificate(sample, index)[0]
    report(11, "all 20 shipped orbit points are extreme (exact LP)", ok)


def test_criterion_12_hilbert_and_cross_ratio():
    stream = RandomStream(0).split("acceptance-hilbert")
    ok = True
    for _ in range(50):
        dim = stream.next_int(1, 3)
        lows = [Fraction(stream.next_int(-5, -1)) for _ in range(dim)]
        highs = [Fraction(stream.next_int(1, 5)) for _ in range(dim)]
        faces = box(lows, highs)

        def interior():
            return [lo + Fraction(stream.next_int(1, 9), 10) * (hi - lo)
                    for lo, hi in zip(lows, highs)]

        x, y, z = interior(), interior(), interior()
        r_xy = hilbert_log_argument(faces, x, y)
        ok = ok and r_xy >= 1 and ((r_xy == 1) == (x == y))
        ok = ok and r_xy == hilbert_log_argument(faces, y, x)
        ok = ok and hilbert_log_argument(faces, x, z) <= \
            r_xy * hilbert_log_argument(faces, y, z)
        ok = ok and hilbert_log_argument(faces, x, x) == 1

    p = rational_lift(HeisElement.identity())
    q = rational_lift(HeisElement.of(1, 1, 1))
    points = [[u + Fraction(t) * v for u, v in zip(p, q)]
              for t in (0, 1, 2, 3)]
    base = cross_ratio(*points)
    for _ in range(50):
        mat = rational_image(THETA, stream.next_triple())
        ok = ok and cross_ratio(*(mat.apply(v) for v in points)) == base
    report(12, "Hilbert metric axioms on 50 polytopes and cross-ratio "
               "invariance under 50 elements", ok)


def test_criterion_13_determinism(tmp_path):
    reports = []
    for run in ("first", "second"):
        config = RunConfig(seed=0, output_dir=tmp_path / run)
        reports.append(run_suite(config))
    ok = all(r["overall"] == PASS for r in reports)
    files = sorted((tmp_path / "first").glob("*.json"))
    ok = ok and len(files) > 0
    for path in files:
        a = json.loads(path.read_text())
        b = json.loads((tmp_path / "second" / path.name).read_text())
        for d in (a, b):
            d.pop("timestamp", None)
            d.pop("generated_at", None)
            # Only report.json has claim rows, each with its wall time.
            for row in d.get("claims", ()):
                row.pop("wall_s")
        ok = ok and a == b
    report(13, "two seed-0 runs are byte-identical modulo timestamps", ok)
