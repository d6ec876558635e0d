#!/bin/sh
# Non-comment line count of the engine: every .ml/.mli under lib/ and
# bin/, with (possibly nested) (* ... *) comments stripped — except
# inside string and character literals — and blank lines dropped.
#
#   scripts/loc.sh [ROOT]    # ROOT defaults to the repository root
#
# Run it on two checkouts to report a change's count against its
# parent's.
set -eu

root=${1:-$(dirname "$0")/..}
find "$root/lib" "$root/bin" -type f \( -name '*.ml' -o -name '*.mli' \) | sort |
python3 -c '
import sys

def strip(src):
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            i += 2
        elif depth and src.startswith("*)", i):
            depth -= 1
            i += 2
        elif c == "\"":
            # a string literal, kept outside comments (OCaml lexes
            # strings inside comments too, so a "*)" there closes nothing)
            j = i + 1
            while j < n and src[j] != "\"":
                j += 2 if src[j] == "\\" else 1
            if not depth:
                out.append(src[i:j + 1])
            i = j + 1
        elif c == "\x27" and (src.startswith("\x27\"\x27", i) or src.startswith("\x27\\\"\x27", i)):
            # a double-quote character literal does not open a string
            k = 3 if src[i + 1] == "\"" else 4
            if not depth:
                out.append(src[i:i + k])
            i += k
        else:
            if not depth or c == "\n":
                out.append(c)
            i += 1
    return "".join(out)

total = 0
for path in sys.stdin.read().split():
    with open(path, encoding="utf-8") as f:
        total += sum(1 for line in strip(f.read()).splitlines() if line.strip())
print(total)
'
