"""Field-level diff of the golden documents between two git revisions.

Usage, from the root of the repository:

    python tests/audit_goldens.py OLD_REV NEW_REV [--error-limit X]

Prints every changed field of every ``tests/golden/*.txt`` document with its
old and new value: ``key = value`` lines by key, CSV rows by column.  With
``--error-limit`` it exits with status 1 unless every changed field is an
error column (``relative_error`` or ``rel_err``) below X on both sides.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

ERROR_FIELDS = {"relative_error", "rel_err"}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def changed_fields(old: str, new: str) -> list[tuple[int, str, str, str]]:
    """(line number, field, old value, new value) of every changed field."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return [(0, "line count", str(len(a)), str(len(b)))]
    header = a[0].split(",") if "," in a[0] else []
    out = []
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x == y:
            continue
        if header and not x.startswith("#") and x.count(",") == y.count(",") == len(header) - 1:
            out += [(i, h, p, q) for h, p, q in zip(header, x.split(","), y.split(",")) if p != q]
        elif " = " in x and x.split(" = ")[0] == y.split(" = ")[0]:
            out.append((i, x.split(" = ")[0].lstrip("# "), x.split(" = ", 1)[1],
                        y.split(" = ", 1)[1]))
        else:
            out.append((i, "line", x, y))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--error-limit", type=float)
    args = parser.parse_args()
    names = _git("ls-tree", "--name-only", args.new, "tests/golden/").split()
    outside = total = 0
    for name in sorted(n for n in names if n.endswith(".txt")):
        fields = changed_fields(_git("show", f"{args.old}:{name}"), _git("show", f"{args.new}:{name}"))
        for line, field, old, new in fields:
            ok = (field in ERROR_FIELDS and args.error_limit is not None
                  and max(float(old), float(new)) < args.error_limit)
            outside += args.error_limit is not None and not ok
            total += 1
            print(f"{name}:{line}: {field}: {old} -> {new}"
                  + ("" if ok or args.error_limit is None else "  OUTSIDE"))
    print(f"{total} changed fields, {outside} outside the allowance")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
