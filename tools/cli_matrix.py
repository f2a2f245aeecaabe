#!/usr/bin/env python3
"""Run a fixed matrix of CLI commands and print one sha256 per command over
its exit code, stdout and stderr.

Every fixture document runs under ``lattice``, ``translate``,
``act-check``, ``quotient``, ``gross-tucker`` (plain and
``--label-consistent``), ``fundomain`` and ``properties``, with no window
and with the windows -3:3 and 0:4, in text and with ``--json``.  The
commands run in-process against the ``src/`` of the checkout this script
sits in, so running it in two checkouts and diffing the two printouts
shows every command whose output changed:

    python tools/cli_matrix.py > after.txt
    (cd ../other-checkout && python tools/cli_matrix.py) > before.txt
    diff before.txt after.txt

Only the standard library and the checkout's own ``labgraphs`` are used.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ["lattice"],
    ["translate"],
    ["act-check"],
    ["quotient"],
    ["gross-tucker"],
    ["gross-tucker", "--label-consistent"],
    ["fundomain"],
    ["properties"],
)
WINDOWS = ((), ("--window", "-3:3"), ("--window", "0:4"))
FORMATS = ((), ("--json",))


def matrix() -> list[list[str]]:
    """Every command of the matrix, as argv lists, in a fixed order."""
    fixtures = sorted(name for name in os.listdir(os.path.join(ROOT, "fixtures"))
                      if name.endswith(".json"))
    return [[command[0], f"fixtures/{name}", *command[1:], *window, *fmt]
            for name in fixtures for command in COMMANDS
            for window in WINDOWS for fmt in FORMATS]


def run(main, argv: list[str]) -> str:
    """sha256 over the exit code, stdout and stderr of one command; an
    exception that escapes ``main`` is digested as its traceback's last
    line, so a crash shows up as a changed digest rather than ending the
    run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception:
            code = "raised " + traceback.format_exc().strip().splitlines()[-1]
    digest = hashlib.sha256()
    for part in (str(code), out.getvalue(), err.getvalue()):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from labgraphs.cli import main as cli_main
    os.chdir(ROOT)
    for argv in matrix():
        print(f"{run(cli_main, argv)}  {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
