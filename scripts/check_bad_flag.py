#!/usr/bin/env python3
"""Check that a bench binary rejects a bad flag value cleanly.

Runs ``<bench> <flag> <value>`` and passes only if the process exits
with status 1 (not a crash, not 0) and its output names the flag, so a
user can tell which argument was wrong.

Usage:
    check_bad_flag.py PATH_TO_BENCH FLAG VALUE
"""

import subprocess
import sys


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    bench, flag, value = argv[1:]
    proc = subprocess.run([bench, flag, value], capture_output=True,
                          text=True, timeout=60)
    output = proc.stdout + proc.stderr
    if proc.returncode != 1:
        print(f"FAIL: {bench} {flag} {value} exited {proc.returncode}, "
              f"want 1\n{output}")
        return 1
    if flag not in output:
        print(f"FAIL: {bench} {flag} {value} exited 1 without naming "
              f"{flag}\n{output}")
        return 1
    print(f"ok: {flag} {value} -> exit 1: {output.splitlines()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
