"""scripts/rederive_witnesses.py --check: the frozen data files equal
their derivations."""

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


@pytest.mark.parametrize("name, row", [
    ("hull_sample.csv", "0,0,0"),
    ("extreme_functionals.tsv", "\t".join(["0"] * 14)),
], ids=["hull_sample.csv", "extreme_functionals.tsv"])
def test_a_stale_file_fails_the_check_and_is_not_rewritten(tmp_path, name,
                                                           row):
    """In a copy of the script and the package with one row added to a
    frozen file, --check names that file, exits 1 and leaves it as it
    was."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sample = tmp_path / "src" / "heiscert" / "data" / name
    stale = sample.read_text().replace("\n", f"\n{row}\n", 1)
    sample.write_text(stale)
    result = check(tmp_path)
    assert (result.returncode, result.stdout) == (1, f"stale: {name}\n")
    assert sample.read_text() == stale
