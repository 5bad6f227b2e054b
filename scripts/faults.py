"""Minor page faults of fixed ptdiff commands, each run twice in one process.

Each command gets a child Python process of its own.  The child imports
ptdiff, then runs the command twice through ``cli.main`` and reads its own
minor faults (``resource.getrusage``) around each run, so the faults of
the import are not counted.  Prints a header and one row per command: the
faults of its first run, of its second run, the two exit codes and the
command.

    python scripts/faults.py [command ...]

With no command, the fixed list ``COMMANDS``: 2-D jets and classifies,
whose faults follow the engine's block arrays.  Reports go to a temporary
directory.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (
    "jet --item gauss2d --point 0.2,-0.1 --k 1",
    "jet --item gauss2d --point 0.2,-0.1 --k 2",
    "classify --item radial_root2d --point 0,0 --k 0",
    "classify --item gauss2d --point 0,0 --k 2",
)
HEADER = ("first", "second", "exits", "command")
CHILD = """\
import resource, sys
from ptdiff import cli
argv = sys.argv[1].split() + ["--out", sys.argv[2]]
faults, codes = [], []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    codes.append(cli.main(argv))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults, ",".join(map(str, codes)))
"""


def measure(command: str) -> tuple:
    """(first, second, exits) of one command, in a fresh child process."""
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", CHILD, command, out], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    first, second, exits = done.stdout.split()
    return int(first), int(second), exits


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("commands", nargs="*", default=COMMANDS,
                    help="ptdiff command lines, each one argument")
    args = ap.parse_args(argv)
    print("{:>7} {:>7} {:>5}  {}".format(*HEADER))
    for command in args.commands:
        print("{:>7} {:>7} {:>5}  {}".format(*measure(command), command))


if __name__ == "__main__":
    main()
