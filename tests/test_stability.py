import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "stability.py"
_spec = importlib.util.spec_from_file_location("stability", _PATH)
stability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stability)

SHA_A, SHA_B = "a" * 64, "b" * 64
HEADER = '# environment {"numpy": "1"}'


def _checked(monkeypatch, tmp_path, recorded: list[str], fresh: list[str]) -> int:
    record = tmp_path / "stability.txt"
    record.write_text("\n".join(recorded) + "\n", encoding="utf-8")
    monkeypatch.setattr(stability, "RECORD", record)
    return stability.check(fresh)


def test_hashes_are_compared_in_the_recorded_environment(monkeypatch, tmp_path, capsys):
    recorded = [HEADER, f"check  exit=0  {SHA_A}", "check  linalg  svd=7"]
    assert _checked(monkeypatch, tmp_path, recorded, recorded) == 0
    assert _checked(monkeypatch, tmp_path, recorded,
                    [HEADER, f"check  exit=0  {SHA_B}", "check  linalg  svd=7"]) == 1
    assert f"+check  exit=0  {SHA_B}" in capsys.readouterr().out


def test_elsewhere_only_the_hashes_are_not_compared(monkeypatch, tmp_path, capsys):
    recorded = [HEADER, f"check  exit=0  {SHA_A}", "check  linalg  svd=7"]
    other = '# environment {"numpy": "2"}'
    assert _checked(monkeypatch, tmp_path, recorded,
                    [other, f"check  exit=0  {SHA_B}", "check  linalg  svd=7"]) == 0
    # the exit code beside a hash and every count are still compared
    assert _checked(monkeypatch, tmp_path, recorded,
                    [other, f"check  exit=2  {SHA_B}", "check  linalg  svd=6"]) == 1
    out = capsys.readouterr().out
    assert "+check  exit=2  <sha256>" in out and "+check  linalg  svd=6" in out


def test_output_matches_the_checked_in_record():
    # a change that moves a line regenerates tools/stability.txt, so that
    # its diff names the lines moved
    run = subprocess.run([sys.executable, str(_PATH), "--check"],
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
