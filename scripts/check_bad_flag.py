#!/usr/bin/env python3
"""Check that a bench binary rejects a bad command line cleanly.

Runs ``<bench> <flag> <value> [<flag> <value> ...]`` and passes only if
the process exits with status 1 (not a crash, not 0) and its output
names every flag given, so a user can tell which arguments were wrong.

Usage:
    check_bad_flag.py PATH_TO_BENCH FLAG VALUE [FLAG VALUE ...]
"""

import subprocess
import sys


def main(argv):
    if len(argv) < 4 or len(argv) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    bench, args = argv[1], argv[2:]
    flags = args[0::2]
    command = " ".join(args)
    proc = subprocess.run([bench] + args, capture_output=True, text=True,
                          timeout=60)
    output = proc.stdout + proc.stderr
    if proc.returncode != 1:
        print(f"FAIL: {bench} {command} exited {proc.returncode}, "
              f"want 1\n{output}")
        return 1
    missing = [flag for flag in flags if flag not in output]
    if missing:
        print(f"FAIL: {bench} {command} exited 1 without naming "
              f"{', '.join(missing)}\n{output}")
        return 1
    print(f"ok: {command} -> exit 1: {output.splitlines()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
