"""CI's lint job and the pre-commit hook run ``ruff check`` on one target
list, written in both files.  The two copies drifted apart once (the hook
covered 3 of CI's 13 paths), so they must name the same paths, and every
path must exist."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ruff_targets(path: str, key: str):
    """The paths after ``ruff check`` on the one ``key:`` line of
    ``path`` that runs it."""
    lines = [line for line in (ROOT / path).read_text().splitlines()
             if re.match(rf"\s*(- )?{key}: ruff check ", line)]
    assert len(lines) == 1, lines
    return lines[0].split("ruff check", 1)[1].split()


def test_ci_and_pre_commit_lint_the_same_paths():
    ci = _ruff_targets(".github/workflows/ci.yml", "run")
    hook = _ruff_targets(".pre-commit-config.yaml", "entry")
    assert ci and ci == hook
    assert [p for p in ci if not (ROOT / p).exists()] == []
