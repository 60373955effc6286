#!/usr/bin/env python3
"""Fails on library code that no shipped program runs.

Reads a build tree configured with `-ffunction-sections` and linked with
`-Wl,--gc-sections`, so every executable keeps only the functions it can
reach. Each member of `src/*/libhdc_*.a` must define at least one global
function that survives in one of the shipped programs: `tools/hdc` and the
executables in `bench/` and `examples/`. Tests and the repository benchmark
(`perfbench/`) do not count as users. Prints each unreached member as
`archive: member`; exits 1 if there is one.

Usage: unreached_objects.py BUILD_DIR
"""

import glob
import os
import subprocess
import sys


def nm_lines(path, *flags):
    out = subprocess.run(["nm", "-P", *flags, path], check=True, capture_output=True,
                         text=True).stdout
    return out.splitlines()


def is_elf_executable(path):
    if not os.path.isfile(path) or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def programs(build):
    candidates = [os.path.join(build, "tools", "hdc")]
    for folder in ("bench", "examples"):
        candidates += sorted(glob.glob(os.path.join(build, folder, "*")))
    return [p for p in candidates if is_elf_executable(p)]


def linked_functions(paths):
    """Names of the functions the linker kept in any of `paths`."""
    kept = set()
    for path in paths:
        for line in nm_lines(path, "--defined-only"):
            fields = line.split()
            if len(fields) >= 2 and fields[1] in "Tt":
                kept.add(fields[0])
    return kept


def member_functions(archive):
    """Maps each archive member to the global functions it defines."""
    listing = subprocess.run(["ar", "t", archive], check=True, capture_output=True,
                             text=True).stdout
    members = {member: set() for member in listing.split()}
    for line in nm_lines(archive, "-A", "--defined-only", "--extern-only"):
        # "lib.a[member.o]: symbol T value size"
        where, _, rest = line.partition(": ")
        member = where[where.index("[") + 1:-1]
        fields = rest.split()
        if len(fields) >= 2 and fields[1] == "T":
            members[member].add(fields[0])
    return members


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    build = argv[1]
    exes = programs(build)
    archives = sorted(glob.glob(os.path.join(build, "src", "*", "libhdc_*.a")))
    if not exes or not archives:
        print(f"error: no programs or libraries under {build}", file=sys.stderr)
        return 2
    kept = linked_functions(exes)
    unreached = []
    members = 0
    for archive in archives:
        for member, functions in sorted(member_functions(archive).items()):
            members += 1
            if not functions & kept:
                unreached.append(f"{os.path.relpath(archive, build)}: {member}")
    for line in unreached:
        print(line)
    print(f"{members} library objects, {len(exes)} programs, "
          f"{len(unreached)} unreached")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
