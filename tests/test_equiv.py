"""Self-tests of ``tools/equiv.py``, on a scratch git repository holding a copy of this tree."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GIT = ["git", "-c", "user.name=equiv", "-c", "user.email=equiv@localhost"]

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture
def repo(tmp_path):
    """A git repository whose one commit holds this tree's ``src/`` and the files the tool reads."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src", ignore=shutil.ignore_patterns("__pycache__"))
    for rel in ("tools/equiv.py", "perfbench/run.py"):
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / rel, repo / rel)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(GIT + args, cwd=repo, check=True, capture_output=True)
    return repo


def equiv(repo, capsys):
    """Exit code and report of the repository's tool against its commit, on the tiny config
    only: the two workload configs would take about 10 s more."""
    spec = importlib.util.spec_from_file_location("equiv", repo / "tools" / "equiv.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.configs = lambda: {"tiny": tool.TINY_CONFIG}
    capsys.readouterr()
    code = tool.main(["--base", "HEAD"])
    worktrees = subprocess.run(GIT + ["worktree", "list"], cwd=repo, check=True,
                               capture_output=True, text=True).stdout.splitlines()
    assert len(worktrees) == 1 and not (repo / ".equiv_work").exists()  # removed on exit
    return code, json.loads(capsys.readouterr().out.splitlines()[-1])


def test_identical_tree_passes(repo, capsys):
    code, report = equiv(repo, capsys)
    assert (code, report["differ"], report["failed"]) == (0, [], [])
    assert report["compared"]["tiny"] > 30


def test_one_changed_constant_is_caught(repo, capsys):
    path = repo / "src" / "anticipation" / "workflow.py"
    source = path.read_text(encoding="utf-8")
    assert source.count('join(["%.17g"]') == 1
    path.write_text(source.replace('join(["%.17g"]', 'join(["%.16g"]'), encoding="utf-8")
    code, report = equiv(repo, capsys)
    assert code == 1 and report["failed"] == []
    assert "tiny/dataset/train/proc_0000.features.csv" in report["differ"]
    assert "tiny/manifest.json" in report["differ"]
    assert "tiny/dataset/train/proc_0000.csv" not in report["differ"]  # annotations are unchanged
