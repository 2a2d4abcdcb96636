"""Rewrite the pinned CLI outputs in this directory from the current code.

Run from the repository root with the package importable, e.g.
`PYTHONPATH=src python tests/data/pinned/regenerate.py`. Only do so at a
commit whose output is known to be right: tests/test_cli.py compares later
code against these files byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

from graybox.cli import main

HERE = Path(__file__).resolve().parent
INSTANCES = {
    "paper.adf": ["gen", "--paper-example"],
    "random.adf": ["gen", "--kind", "random-scopes", "--n", "18", "--k", "3", "--m", "12",
                   "--seed", "1"],
    "cyclic.adf": ["gen", "--kind", "adjacent-cyclic", "--n", "40", "--k", "5", "--codomain",
                   "four-optima", "--seed", "1"],
    "exact.adf": ["gen", "--kind", "adjacent-cyclic", "--n", "18", "--k", "3", "--codomain",
                  "four-optima", "--seed", "1"],
}


def cases(directory: Path, side_dir: Path) -> dict[str, tuple[list[str], Path | None]]:
    """Case name -> (argv, side file path or None), one per line of commands.txt."""
    out = {}
    for line in (directory / "commands.txt").read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, rest = line.split(None, 1)
        side = side_dir / f"{name}.side" if "{side}" in rest else None
        out[name] = (shlex.split(rest.format(dir=directory, side=side)), side)
    return out


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"graybox {' '.join(argv)} exited {code}")
    return out.getvalue()


if __name__ == "__main__":
    for name, argv in INSTANCES.items():
        (HERE / name).write_text(run(argv))
    for name, (argv, _) in cases(HERE, HERE).items():
        (HERE / f"{name}.out").write_text(run(argv))
        print(name, file=sys.stderr)
