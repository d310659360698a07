"""scripts/claim_times.py: a header, one row per claim with its warm
median and first-pass replay times, then the totals."""

import subprocess
import sys
from pathlib import Path

from heiscert.suites import CLAIMS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "claim_times.py"


def test_claim_times_lists_every_claim_once_then_the_total():
    result = subprocess.run([sys.executable, str(SCRIPT), "--seed", "5"],
                            check=True, capture_output=True, text=True)
    header, *rows, total = [line.split()
                            for line in result.stdout.splitlines()]
    assert header == ["claim", "warm", "first"]
    assert sorted(row[0] for row in rows) == sorted(c.id for c in CLAIMS)
    assert all(len(row) == 5 and row[2] == row[4] == "ms"
               for row in [*rows, total])
    times = [float(row[1]) for row in rows]
    assert times == sorted(times, reverse=True)
    assert total[0] == "total"
    for column in (1, 3):
        assert abs(float(total[column]) - sum(float(row[column])
                                              for row in rows)) \
            < 0.01 * len(rows)
