"""scripts/rederive_witnesses.py --check: the frozen data files equal
their derivations."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = Path("scripts") / "rederive_witnesses.py"


def check(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / SCRIPT), "--check"],
                          capture_output=True, text=True)


def test_shipped_files_match_their_derivations():
    result = check(ROOT)
    assert (result.returncode, result.stdout) == \
        (0, "all frozen files match their derivations\n")


def test_a_stale_file_fails_the_check_and_is_not_rewritten(tmp_path):
    """In a copy of the script and the package with one sample row
    edited, --check names that file, exits 1 and leaves it as it was."""
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / SCRIPT, tmp_path / SCRIPT)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sample = tmp_path / "src" / "heiscert" / "data" / "hull_sample.csv"
    stale = sample.read_text().replace("\n", "\n0,0,0\n", 1)
    sample.write_text(stale)
    result = check(tmp_path)
    assert (result.returncode, result.stdout) == \
        (1, "stale: hull_sample.csv\n")
    assert sample.read_text() == stale
