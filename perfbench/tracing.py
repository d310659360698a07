"""Span recording around heiscert's public entry points.

The tracer replaces each entry point named in ENTRY_POINTS with a wrapper
that records a span (name, start, end, parent) in memory.  Nothing under
src/ is edited: methods are replaced on their class, and module-level
functions are replaced in every heiscert module that holds them, because
names bound by `from ... import ...` (suites.jordan_partition,
convexity.convex_combination_weights, ...) are separate references.
Claims are wrapped by rebuilding suites.CLAIMS and suites.CLAIMS_BY_ID.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# (layer name, module, attribute); "Class.method" attributes are
# replaced on the class, plain names in every module that binds them.
ENTRY_POINTS = (
    ("linalg.matmul", "heiscert.linalg", "Matrix.__mul__"),
    ("linalg.apply", "heiscert.linalg", "Matrix.apply"),
    ("linalg.rank", "heiscert.linalg", "Matrix.rank"),
    ("linalg.det", "heiscert.linalg", "Matrix.det"),
    ("linalg.rref", "heiscert.linalg", "Matrix.rref"),
    ("linalg.jordan_partition", "heiscert.linalg", "jordan_partition"),
    ("heis.specialize", "heiscert.heis", "Representation.__call__"),
    ("heis.load_representation", "heiscert.heis", "load_representation"),
    ("poly.mul", "heiscert.poly", "Poly.__mul__"),
    ("poly.eval", "heiscert.poly", "Poly.eval"),
    ("poly.substitute", "heiscert.poly", "Poly.substitute"),
    ("poly.parse", "heiscert.poly", "PolyRing.parse"),
    ("lp.feasibility", "heiscert.lp", "solve_equality_feasibility"),
    ("convexity.orbit_lift", "heiscert.convexity", "orbit_lift"),
    ("convexity.extreme_point", "heiscert.convexity",
     "extreme_point_certificate"),
    ("metric.hilbert_log_argument", "heiscert.metric",
     "hilbert_log_argument"),
    ("metric.cross_ratio", "heiscert.metric", "cross_ratio"),
    ("cone.pd_preservation", "heiscert.cone", "pd_preservation_certificate"),
    ("cone.sym_square_match", "heiscert.cone",
     "sym_square_match_certificate"),
    ("restriction.restriction_certificate", "heiscert.restriction",
     "restriction_certificate"),
    ("restriction.intertwiner_dimension", "heiscert.restriction",
     "intertwiner_dimension"),
    ("certs.to_json", "heiscert.certs", "Certificate.to_json"),
    ("certs.from_dict", "heiscert.certs", "Certificate.from_dict"),
    ("certs.digest", "heiscert.certs", "digest"),
    ("sampler.next_u64", "heiscert.sampler", "RandomStream.next_u64"),
    ("suites.runner", "heiscert.suites", "run_suite"),
    ("suites.runner", "heiscert.suites", "replay"),
)

# Layers reported as a count only.
COUNT_ONLY = {"sampler.next_u64"}
# Layers reported as self time only.
TIME_ONLY = {"suites.runner"}

# The 23 claims of the registry; a claim a workload does not run reads 0.
CLAIM_IDS = (
    "reps.homomorphism.theta", "reps.homomorphism.rho6",
    "reps.homomorphism.rho14", "reps.injectivity.theta",
    "reps.injectivity.rho6", "jordan.center_case",
    "jordan.unique_odd_largest", "orbit.formula", "orbit.equivariance",
    "orbit.limit_point", "orbit.fixed_at_infinity", "hull.dimension",
    "hull.degenerate_center", "hull.proper_convexity", "hull.extreme_points",
    "restrict.conjugate_to_theta", "growth.block_degrees",
    "cone.sym_square_match", "cone.pd_preserved",
    "cone.parabolic_fixed_points", "cone.boundary_flat",
    "hilbert.metric_axioms", "hilbert.cross_ratio_invariance",
)

CLAIM_PREFIX = "suites.claim."


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.active = True

    def wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point; returns the ones the program lacks."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("heiscert") and mod is not None}
    missing = []
    for layer, module_name, attr in ENTRY_POINTS:
        module = modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = (vars(owner).get(method) if owner_name
                    else getattr(module, attr, None))
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        if isinstance(original, staticmethod):
            wrapped = staticmethod(tracer.wrap(layer, original.__func__))
        else:
            wrapped = tracer.wrap(layer, original)
        # Aliases such as Poly.__rmul__ = __mul__ are the same object.
        holders = [owner] if owner_name else list(modules.values())
        _rebind(holders, original, wrapped)

    suites = modules["heiscert.suites"]
    claims = tuple(dataclasses.replace(
        claim,
        run=tracer.wrap(CLAIM_PREFIX + claim.id, claim.run),
        replay=tracer.wrap(CLAIM_PREFIX + claim.id, claim.replay))
        for claim in suites.CLAIMS)
    _rebind(modules.values(), suites.CLAIMS, claims)
    _rebind(modules.values(), suites.CLAIMS_BY_ID,
            {claim.id: claim for claim in claims})
    return missing


def _rebind(holders, original, replacement) -> None:
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, key, replacement)


def aggregate(spans) -> dict[str, list]:
    """Per span name: [calls, self seconds, total seconds].  Self time is
    the span's duration minus the time its child spans cover; spans of
    one thread nest, so that is the sum of the children's durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start - child_time
        entry[2] += end - start
    return totals


def layer_names() -> list[str]:
    return list(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))
