#!/usr/bin/env python
"""Run every fenced ``python`` block of README.md, each in a fresh
temporary directory, so files a snippet writes (a sweep store, say) never
meet the checkout or another snippet.

The library is imported from this checkout's ``src``.  A block that raises
fails the run: exit status 1, after every block has run.  Run from any
directory::

    python scripts/run_readme_snippets.py
"""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def main() -> int:
    blocks = FENCE.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    if not blocks:
        print("README.md holds no python block", file=sys.stderr)
        return 1
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONPATH=path)
    failed = []
    for number, code in enumerate(blocks, 1):
        first = code.splitlines()[0]
        print(f"== README python block {number}: {first}", flush=True)
        with tempfile.TemporaryDirectory() as scratch:
            run = subprocess.run([sys.executable, "-c", code], cwd=scratch, env=env)
        if run.returncode:
            failed.append(number)
    if failed:
        print(f"README python block(s) {failed} failed", file=sys.stderr)
        return 1
    print(f"all {len(blocks)} README python blocks ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
