"""heiscert benchmark: closed loop, one client, one fresh interpreter per
operation, one operation at a time.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 10 --trace 0

Workloads (see NOTES.md for why each was chosen):
  verify           run_suite over all 8 suites (23 claims), as users run it
  verify_geometry  every suite except jordan (21 claims)
  replay           suites.replay over the 23 certificates of one verify run

--trace 0 measures the end-to-end metrics with nothing wrapped.  Times are
counted in speed-probe chunks and reported at the reference speed (see
speed.py), because the shared host's speed swings by up to 2x; the raw
wall-clock medians are printed beside them.
--trace 1 alternates plain and traced operations (at least one plain and
two traced), reports per-layer metrics derived from the spans, and writes
the spans to .perfbench_runs/spans-<workload>.jsonl.gz.

Every operation is checked: every claim PASS (verify) or MATCH (replay),
the expected claim count, and the same certificate digest as every other
operation of the run.  Traced runs also require the digest of the plain
operations and identical call counts in every traced operation.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("verify", "verify_geometry", "replay")
# Set-up-only interpreters at the start of a plain run, besides one before
# each operation and each operation's own.
SETUP_PROBES = 3
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
# A tail percentile is reported once this many samples lie beyond it.
TAIL_SAMPLES = 10
# Operations every run makes, however short its seconds.
MIN_OPS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "heiscert" / "__init__.py").is_file():
        print(f"no heiscert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, work)
        result = bench.run_traced() if args.trace else bench.run_plain()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        self.count = 0
        self.info: dict = {}
        self.prep_problems: list[str] = []

    # -- one operation ------------------------------------------------------

    def op(self, workload: str, certs: Path = None, trace: bool = False
           ) -> dict:
        """Run one operation in a fresh interpreter; returns its result,
        with the reason in "problems" when it failed."""
        self.count += 1
        result_file = self.work / f"op{self.count}.json"
        cmd = [sys.executable, str(HERE / "op.py"), workload, str(self.seed),
               str(certs or "-"), str(result_file), str(int(trace))]
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            return {"problems": [f"{workload} timed out"], "timed_out": True}
        if proc.returncode != 0 or not result_file.is_file():
            sys.stderr.write(proc.stderr)
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            return {"problems": [f"{workload} exited {proc.returncode}: "
                                 f"{tail}"]}
        result = json.loads(result_file.read_text())
        result_file.unlink()
        self.info = result.pop("info")
        return result

    def workload_op(self, trace: bool = False) -> dict:
        if self.workload == "replay":
            result = self.op("replay", self.work / "prep", trace)
            result["problems"] = self.prep_problems + result["problems"]
            return result
        out = self.work / "certs"
        shutil.rmtree(out, ignore_errors=True)
        return self.op(self.workload, out, trace)

    def prepare(self) -> None:
        """Replay reads the certificates of one verify run at the seed."""
        if self.workload == "replay":
            prep = self.op("verify", self.work / "prep")
            self.prep_problems = [f"preparing verify: {p}"
                                  for p in prep["problems"]]

    def loop(self, kinds, setups: list = None) -> list[tuple[bool, dict]]:
        """Closed loop: next operation once the last one ends, until the
        measured seconds are spent; `kinds` yields trace flags and its
        first MIN_OPS are always run.  With `setups`, a set-up-only
        interpreter runs before each operation and its time is appended,
        so set-up samples spread over the run like the operations."""
        deadline = time.perf_counter() + self.seconds
        done = []
        for index, trace in enumerate(kinds):
            if index >= MIN_OPS and time.perf_counter() >= deadline:
                break
            if setups is not None:
                setups.append(self.op("setup"))
            result = self.workload_op(trace)
            done.append((trace, result))
            if result.get("timed_out"):
                break
        return done

    # -- runs ---------------------------------------------------------------

    def run_plain(self):
        self.op("setup")  # warm the bytecode and file caches
        setups = [self.op("setup") for _ in range(SETUP_PROBES)]
        self.prepare()
        ops = [r for _, r in self.loop(itertools.repeat(False), setups)]
        failed, digest = mark_failures(ops)
        timed = [r for r in ops if "op_s" in r]
        if not timed:
            print("no operation completed", file=sys.stderr)
            return None
        setups = [r for r in setups + timed if "setup_s" in r]
        ref = speed.REFERENCE_CHUNK_S
        norm_walls = sorted(r["op_chunks"] * ref for r in timed)
        walls = sorted(r["op_wall_s"] for r in timed)
        norm_setups = [r["setup_chunks"] * ref for r in setups]
        rss_mb = [r["rss_kb"] / 1024 for r in timed]
        metrics = {
            "norm_wall_s": (statistics.median(norm_walls), "s"),
            "setup_s": (statistics.median(norm_setups), "s"),
            "peak_rss_mb": (statistics.median(rss_mb), "MB"),
            "ok_ratio": ((len(ops) - failed) / len(ops), "ratio"),
        }
        self.describe(ops, failed, digest)
        print(f"norm_wall_s: median {statistics.median(norm_walls):.4f} s "
              f"over {len(timed)} operations; {tail_text(norm_walls)}")
        print(f"wall_s (raw wall clock, probe excluded): median "
              f"{statistics.median(walls):.4f} s; {tail_text(walls)}")
        print(f"setup_s: median over {len(setups)} interpreters "
              f"({len(setups) - len(timed)} set-up only); raw wall clock "
              f"median {statistics.median(r['setup_s'] for r in setups):.4f} s")
        return self.result(ops, failed, metrics)

    def run_traced(self):
        self.prepare()
        done = self.loop(_traced_schedule())
        ops = [r for _, r in done]
        failed, digest = mark_failures(ops)
        plain = [r for trace, r in done if not trace and "op_s" in r]
        traced = [r for trace, r in done if trace and "spans" in r]
        if not plain or len(traced) < 2:
            print("too few operations completed for a traced run",
                  file=sys.stderr)
            return None
        totals = [tracing.aggregate(r["spans"]) for r in traced]
        drift = count_drift(totals)
        for line in drift:
            print(f"CALL COUNT DRIFT: {line}", file=sys.stderr)
        missing = sorted({m for r in traced for m in r["missing_entry_points"]})
        if missing:
            print(f"entry points not found, reported as 0: {missing}",
                  file=sys.stderr)
        metrics = layer_metrics(totals)
        overhead = (statistics.median(r["op_s"] for r in traced)
                    - statistics.median(r["op_wall_s"] for r in plain))
        metrics["trace.overhead_s"] = (overhead, "s")
        self.describe(ops, failed, digest)
        print(f"traced: {len(traced)} operations, plain: {len(plain)}; "
              f"tracing overhead {overhead:+.4f} s per operation")
        self.write_spans(traced)
        return self.result(ops, failed, metrics, extra_failure=bool(drift))

    # -- reporting ----------------------------------------------------------

    def describe(self, ops, failed, digest) -> None:
        print(f"heiscert benchmark: workload={self.workload} seed={self.seed} "
              f"seconds={self.seconds:g} python={self.info.get('python')} "
              f"nproc={os.cpu_count()}")
        print(f"sample sizes: {json.dumps(self.info.get('sample_sizes'))}")
        print(f"operations: {len(ops)} attempted, {failed} failed; "
              f"fail_ratio = {failed / len(ops):.4g} ratio")
        print(f"certificate digest: {digest}")
        for r in ops:
            for problem in r["problems"]:
                print(f"FAILED: {problem}")

    def result(self, ops, failed, metrics, extra_failure=False) -> dict:
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        return {
            "correct": failed == 0 and not extra_failure,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }

    def write_spans(self, traced) -> None:
        """One JSON array per span: operation, span id, name, start, end,
        parent span id (-1 for none); the last traced run per workload."""
        path = RUNS / f"spans-{self.workload}.jsonl.gz"
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"workload": self.workload,
                                  "seed": self.seed, "columns": [
                                      "op", "id", "name", "start", "end",
                                      "parent"]}) + "\n")
            for op_id, r in enumerate(traced, start=1):
                for span_id, span in enumerate(r["spans"]):
                    out.write(json.dumps([op_id, span_id, *span]) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")


def _traced_schedule():
    """Plain, traced, traced, then plain and traced alternately."""
    yield from (False, True, True)
    while True:
        yield False
        yield True


def mark_failures(ops) -> tuple[int, str]:
    """An operation fails on any problem, or when its certificates differ
    from those of the other operations at the same seed.  Returns the
    failure count and the digest most operations agree on."""
    digests = Counter(r.get("digest") for r in ops if not r["problems"])
    reference = digests.most_common(1)[0][0] if digests else None
    for r in ops:
        if not r["problems"] and r.get("digest") != reference:
            r["problems"].append(
                f"certificate digest {r.get('digest')} differs from "
                f"{reference}")
    return sum(1 for r in ops if r["problems"]), reference


def count_drift(totals) -> list[str]:
    first = {name: entry[0] for name, entry in totals[0].items()}
    lines = []
    for index, other in enumerate(totals[1:], start=2):
        counts = {name: entry[0] for name, entry in other.items()}
        for name in sorted(set(first) | set(counts)):
            if first.get(name, 0) != counts.get(name, 0):
                lines.append(f"{name}.calls {first.get(name, 0)} in traced "
                             f"operation 1, {counts.get(name, 0)} in {index}")
    return lines


def layer_metrics(totals) -> dict:
    """Calls from the first traced operation (all are checked equal) and
    median self or total seconds over the traced operations."""
    def median_of(name, column):
        return statistics.median(t.get(name, [0, 0.0, 0.0])[column]
                                 for t in totals)

    metrics = {}
    for layer in tracing.layer_names():
        if layer not in tracing.TIME_ONLY:
            metrics[f"{layer}.calls"] = (totals[0].get(layer, [0])[0],
                                         "count")
        if layer not in tracing.COUNT_ONLY:
            metrics[f"{layer}.self_s"] = (median_of(layer, 1), "s")
    for claim in tracing.CLAIM_IDS:
        metrics[f"{tracing.CLAIM_PREFIX}{claim}.s"] = (
            median_of(tracing.CLAIM_PREFIX + claim, 2), "s")
    return metrics


def tail_text(sorted_values) -> str:
    n = len(sorted_values)
    if n < 2 * TAIL_SAMPLES:
        return (f"no tail percentile: fewer than {2 * TAIL_SAMPLES} "
                f"operations")
    rank = n - TAIL_SAMPLES
    return f"p{100 * rank / n:.0f} {sorted_values[rank - 1]:.4f} s"


if __name__ == "__main__":
    sys.exit(main())
