"""scripts/rederive_witnesses.py --check: the frozen data files equal
their derivations, theta's table PAPER.md's displayed matrix."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = Path("scripts") / "rederive_witnesses.py"


def check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / SCRIPT), "--check"],
                          capture_output=True, text=True)


def test_shipped_files_match_their_derivations():
    result = check(ROOT)
    assert (result.returncode, result.stdout) == \
        (0, "all frozen files match their derivations\n")


# "1 1 1" spells out a unit diagonal entry: the same table, another file.
@pytest.mark.parametrize("name, row", [
    ("theta.rep", "1 1 1"),
    ("extreme_functionals.tsv", "\t".join(["0"] * 14)),
], ids=["theta.rep", "extreme_functionals.tsv"])
def test_a_stale_file_fails_the_check_and_is_not_rewritten(tmp_path, name,
                                                           row):
    """In a copy of the script, PAPER.md and the package with one row
    added to a frozen file, --check names that file, exits 1 and leaves
    it as it was."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    shutil.copy(ROOT / "PAPER.md", tmp_path / "PAPER.md")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sample = tmp_path / "src" / "heiscert" / "data" / name
    stale = sample.read_text().replace("\n", f"\n{row}\n", 1)
    sample.write_text(stale)
    result = check(tmp_path)
    assert (result.returncode, result.stdout) == (1, f"stale: {name}\n")
    assert sample.read_text() == stale
