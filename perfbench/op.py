"""One benchmark operation, run in a fresh interpreter as the CLI would be.

    python3 perfbench/op.py WORKLOAD SEED CERTS RESULT TRACE

WORKLOAD is one of
  setup            only import heiscert.suites and load the three tables
  verify           run_suite(RunConfig(seed=SEED)) into CERTS, all 8 suites
  verify_geometry  the same with every suite except jordan
  replay           suites.replay on every certificate in CERTS
and TRACE is 1 to record spans around heiscert's entry points, else 0.

Writes one JSON object to RESULT: set-up and operation seconds, the same
counted in speed-probe chunks (see speed.py; not when tracing), peak RSS,
a SHA-256 over the certificates' comparable() bodies, the problems found
and, when tracing, the spans.

Set-up time starts before heiscert is imported, and nothing but the probe
(signal, fractions) is imported before that, so the other standard-library
modules heiscert needs count in it.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REPRESENTATIONS = ("theta", "rho6", "rho14")
WORKLOADS = ("setup", "verify", "verify_geometry", "replay")
CLAIM_COUNTS = {"verify": 23, "verify_geometry": 21, "replay": 23}
# Speed-probe intervals: set-up lasts about 0.1 s, an operation seconds.
SETUP_INTERVAL = 0.005
OP_INTERVAL = 0.01


def main(argv) -> int:
    if len(argv) != 5 or argv[0] not in WORKLOADS or argv[4] not in "01":
        raise SystemExit(__doc__.split("\n\n")[1])
    workload, seed, certs, result_file, trace = argv
    seed = int(seed)

    import speed
    sys.path.insert(0, SRC)
    # Spans must not hold the probe's time, so traced operations go
    # without it.
    probing = trace == "0"
    with speed.SpeedProbe(SETUP_INTERVAL, probing) as setup_probe:
        from heiscert import suites
        from heiscert.heis import get_representation
        tracer = missing = None
        if not probing:
            import tracing
            tracer = tracing.Tracer()
            missing = tracing.install(tracer)
        for name in REPRESENTATIONS:
            get_representation(name)

    import hashlib
    import json
    import resource
    from pathlib import Path

    import heiscert
    from heiscert.certs import Certificate
    if not Path(heiscert.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"heiscert imported from {heiscert.__file__}, "
                         f"not from {SRC}")

    def comparable(path: Path) -> dict:
        return Certificate.from_dict(json.loads(path.read_text())).comparable()

    certs = Path(certs)
    problems = []
    op_probe = speed.SpeedProbe(OP_INTERVAL, probing)
    op_s, body = 0.0, None
    if workload in ("verify", "verify_geometry"):
        if workload == "verify":
            config = suites.RunConfig(seed=seed, output_dir=certs)
        else:
            config = suites.RunConfig(
                seed=seed, output_dir=certs,
                suites=tuple(s for s in suites.SUITE_ORDER if s != "jordan"))
        t0 = time.perf_counter()
        with op_probe:
            report = suites.run_suite(config)
        op_s = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        rows = report["claims"]
        expected = CLAIM_COUNTS[workload]
        if report["overall"] != suites.PASS or len(rows) != expected:
            problems.append(f"overall {report['overall']} over {len(rows)} "
                            f"claims, expected PASS over {expected}")
        problems += [f"{row['claim']}: {row['verdict']}" for row in rows
                     if row["verdict"] != suites.PASS]
        body = [comparable(certs / row["file"])
                for row in sorted(rows, key=lambda r: r["claim"])]
    elif workload == "replay":
        paths = sorted(p for p in certs.glob("*.json")
                       if p.name != "report.json")
        t0 = time.perf_counter()
        with op_probe:
            outcomes = [suites.replay(path) for path in paths]
        op_s = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        if len(paths) != CLAIM_COUNTS[workload]:
            problems.append(f"{len(paths)} certificates to replay, "
                            f"expected {CLAIM_COUNTS[workload]}")
        problems += [f"{path.name}: {verdict}"
                     for path, (verdict, _) in zip(paths, outcomes)
                     if verdict != suites.MATCH]
        body = [[comparable(path), verdict, detail]
                for path, (verdict, detail) in zip(paths, outcomes)]

    setup_s, setup_chunks = setup_probe.normalise()
    op_wall_s, op_chunks = op_probe.normalise()
    result = {
        "setup_s": setup_s,
        "setup_chunks": setup_chunks,
        "op_s": op_s,
        "op_wall_s": op_wall_s,
        "op_chunks": op_chunks,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems,
        "digest": None if body is None else hashlib.sha256(json.dumps(
            body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest(),
        "info": {"python": sys.version.split()[0],
                 "sample_sizes": dict(suites.DEFAULT_SAMPLE_SIZES)},
    }
    if tracer:
        result["missing_entry_points"] = missing
        result["spans"] = tracer.spans
    Path(result_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
