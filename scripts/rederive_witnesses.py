#!/usr/bin/env python3
"""Regenerate the frozen data files (the restriction conjugator T and the
default orbit samples) and report whether anything changed.

With --check, exit nonzero instead of rewriting when a regenerated file
differs from the shipped copy.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from heiscert.convexity import sample_orbit  # noqa: E402
from heiscert.heis import DATA_DIR  # noqa: E402
from heiscert.restriction import derive_conjugator  # noqa: E402


def regenerate() -> dict[str, str]:
    return {
        "restriction_T.tsv": derive_conjugator().to_text(),
        "hull_sample.csv": sample_orbit(10, 0, "hull").to_csv(),
        "extreme_sample.csv":
            sample_orbit(20, 0, "extreme", nonzero=True).to_csv(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="diff against the shipped copies, do not write")
    args = parser.parse_args()

    changed = []
    for name, text in regenerate().items():
        path = DATA_DIR / name
        current = path.read_text() if path.exists() else None
        if current != text:
            changed.append(name)
            if not args.check:
                path.write_text(text)
    if args.check:
        if changed:
            print(f"stale: {', '.join(changed)}")
            return 1
        print("all frozen files match their derivations")
        return 0
    print(f"rewrote {len(changed)} file(s)" if changed
          else "all frozen files already current")
    return 0


if __name__ == "__main__":
    sys.exit(main())
