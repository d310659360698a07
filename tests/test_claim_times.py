"""scripts/claim_times.py: one replay time per claim, then the total."""

import subprocess
import sys
from pathlib import Path

from heiscert.suites import CLAIMS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claim_times.py"


def test_claim_times_lists_every_claim_once_then_the_total():
    result = subprocess.run([sys.executable, str(SCRIPT), "--seed", "5"],
                            check=True, capture_output=True, text=True)
    *rows, total = [line.split() for line in result.stdout.splitlines()]
    assert sorted(row[0] for row in rows) == sorted(c.id for c in CLAIMS)
    assert all(len(row) == 3 and row[2] == "ms" for row in [*rows, total])
    times = [float(row[1]) for row in rows]
    assert times == sorted(times, reverse=True)
    assert total[0] == "total"
    assert abs(float(total[1]) - sum(times)) < 0.01 * len(times)
