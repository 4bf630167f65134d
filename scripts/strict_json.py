"""Check that every JSON file under the given directories is strict JSON ending in a newline.

    python scripts/strict_json.py DIR [DIR ...]

NaN, Infinity, a file that does not parse or a missing final newline ends
it with the file's name and exit status 1; otherwise it prints the number of
files checked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def main(dirs) -> None:
    paths = sorted(p for d in dirs for p in Path(d).rglob("*.json"))
    for path in paths:
        text = path.read_text()
        if not text.endswith("\n"):
            sys.exit(f"{path}: no final newline")
        try:
            json.loads(text, parse_constant=reject)
        except ValueError as exc:
            sys.exit(f"{path}: {exc}")
    print(f"{len(paths)} JSON artifacts are strict JSON and end in a newline")


if __name__ == "__main__":
    main(sys.argv[1:])
