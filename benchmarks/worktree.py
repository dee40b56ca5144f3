"""A git revision of this repository, checked out beside this checkout.

    with checkout("HEAD~1", Path(tmp)) as tree:
        ...  # tree / "src" holds that revision's package

``fuzz_parsers.py --against`` and ``warm_faults.py --against`` run each
side from its own tree this way.
"""

from __future__ import annotations

import contextlib
import subprocess
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def checkout(rev: str, parent: Path) -> Iterator[Path]:
    """``rev`` checked out with ``git worktree`` at ``parent / "against"``,
    and removed again on leaving."""
    tree = parent / "against"
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run(git + ["add", "--detach", "--quiet", str(tree), rev], check=True)
    try:
        yield tree
    finally:
        subprocess.run(git + ["remove", "--force", str(tree)], check=True)
