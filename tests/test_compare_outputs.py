"""``tools/compare_outputs.py`` refuses a name that is no commit before it
exports, writes or runs anything.  The tool is loaded from its path; git,
the export and the command runs are replaced by stand-ins."""

import importlib.util
import subprocess
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bad_commit_refused_before_any_export(monkeypatch, capsys, tmp_path, side):
    tool = load_tool()

    def git(*args):
        if args[-1].startswith("NOSUCH"):
            raise subprocess.CalledProcessError(1, ["git", *args])
        return "0123456789abcdef0123456789abcdef01234567"

    exported, ran = [], []
    monkeypatch.setattr(tool.bench_pairs, "git", git)
    monkeypatch.setattr(tool.bench_pairs, "export",
                        lambda commit, dest: exported.append(commit))
    monkeypatch.setattr(tool, "run_all", lambda *args: ran.append(args) or [])
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    argv = ["NOSUCH", "HEAD"] if side == "parent" else ["HEAD", "NOSUCH"]
    with pytest.raises(SystemExit) as excinfo:
        tool.main(argv)
    assert excinfo.value.code == 2
    assert f"{side} 'NOSUCH' names no commit" in capsys.readouterr().err
    assert exported == [] and ran == [] and list(tmp_path.iterdir()) == []
