#!/usr/bin/env python3
"""Where `replay` spends its time: each claim's in-process replay time.

    python3 scripts/claim_times.py [--seed N]

Writes one verify run's certificates at seed N (default 0) to a
temporary directory, then replays every certificate in this process
with suites.replay, in one pass and then WARM_PASSES more.  Prints a
header, then each claim's median time over the warm passes in ms,
largest first, beside its time in the first pass, then the totals of
both columns.  The first pass pays the one-off work, such as loading
the entry tables, compiling theta's Jordan power plan and warming up
the first replayed claim, so the warm median shows each claim's own
time, and keeps one slow pass (a host that swings in speed) out of it,
while the first pass shows what the one-off work adds.  Exits 1, naming
them, if any replay is not a MATCH.  Standard library only.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heiscert import suites  # noqa: E402


# Warm passes after the first; an odd count makes each median one pass's.
WARM_PASSES = 9


def replay_times(seed: int
                 ) -> tuple[dict[str, tuple[float, float]], list[str]]:
    """Each claim's median replay time in seconds over the warm passes
    and its time in the first pass, by id, and the ids whose replay was
    not a MATCH in any pass."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        suites.run_suite(suites.RunConfig(seed=seed, output_dir=out))
        mismatched = set()
        times: dict[str, list[float]] = {c.id: [] for c in suites.CLAIMS}
        for _ in range(1 + WARM_PASSES):
            for claim in suites.CLAIMS:
                start = time.perf_counter()
                verdict, _ = suites.replay(out / f"{claim.id}.json")
                times[claim.id].append(time.perf_counter() - start)
                if verdict != suites.MATCH:
                    mismatched.add(claim.id)
    return ({claim_id: (median(passes[1:]), passes[0])
             for claim_id, passes in times.items()}, sorted(mismatched))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    times, mismatched = replay_times(args.seed)
    if mismatched:
        print("not a MATCH: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    width = max(map(len, times))
    print(f"{'claim':<{width}} {'warm':>8}    {'first':>8}")
    rows = sorted(times.items(), key=lambda item: -item[1][0])
    totals = [sum(column) for column in zip(*times.values())]
    for claim_id, (warm, first) in [*rows, ("total", totals)]:
        print(f"{claim_id:<{width}} {warm * 1e3:8.2f} ms "
              f"{first * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
