#!/usr/bin/env python3
"""Where `replay` spends its time: each claim's in-process replay time.

    python3 scripts/claim_times.py [--seed N]

Writes one verify run's certificates at seed N (default 0) to a
temporary directory, then replays every certificate twice in this
process with suites.replay.  Prints each claim's time from the second
pass in ms, largest first, then their total.  The first pass pays the
one-off work, such as loading the entry tables and compiling theta's
Jordan power plan, so the second shows each claim's own time.  Exits 1,
naming them, if any replay is not a MATCH.  Standard library only.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heiscert import suites  # noqa: E402


def replay_times(seed: int) -> tuple[dict[str, float], list[str]]:
    """The second pass's replay time in seconds of each claim, by id, and
    the ids whose replay was not a MATCH in either pass."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        suites.run_suite(suites.RunConfig(seed=seed, output_dir=out))
        mismatched = set()
        for _ in range(2):
            times = {}
            for claim in suites.CLAIMS:
                start = time.perf_counter()
                verdict, _ = suites.replay(out / f"{claim.id}.json")
                times[claim.id] = time.perf_counter() - start
                if verdict != suites.MATCH:
                    mismatched.add(claim.id)
    return times, sorted(mismatched)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    times, mismatched = replay_times(args.seed)
    if mismatched:
        print("not a MATCH: " + ", ".join(mismatched), file=sys.stderr)
        return 1
    width = max(map(len, times))
    for claim_id, seconds in sorted(times.items(), key=lambda item: -item[1]):
        print(f"{claim_id:<{width}} {seconds * 1e3:8.2f} ms")
    print(f"{'total':<{width}} {sum(times.values()) * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
