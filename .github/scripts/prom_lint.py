#!/usr/bin/env python3
"""Lints a Prometheus text exposition (the `--prom` file `hdc serve` writes).

Each family must be declared by exactly one `# HELP` and one `# TYPE` line,
its `# TYPE` before its first sample, and every sample line must belong to a
declared family. Prints the family count; exits 1 on any violation.

Usage: prom_lint.py FILE...
"""

import re
import sys

SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? \S+$")


def lint(path):
    helps, types, errors = {}, {}, []
    with open(path, encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.rstrip("\n")
            where = f"{path}:{n}"
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                seen = helps if line.startswith("# HELP ") else types
                family = line.split(" ", 3)[2]
                if family in seen:
                    errors.append(f"{where}: {line[:6]} for {family} declared twice")
                seen[family] = n
                continue
            match = SAMPLE.match(line)
            if match is None:
                errors.append(f"{where}: not a sample line: {line!r}")
            elif match.group(1) not in types:
                errors.append(f"{where}: sample of undeclared family {match.group(1)}")
    for family in sorted(set(helps) ^ set(types)):
        missing = "# TYPE" if family in helps else "# HELP"
        errors.append(f"{path}: family {family} has no {missing}")
    return len(types), errors


def main(paths):
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        families, errors = lint(path)
        for error in errors:
            print(error, file=sys.stderr)
        failed |= bool(errors)
        print(f"{path}: {families} families, {len(errors)} violations")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
