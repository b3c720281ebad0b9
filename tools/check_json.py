#!/usr/bin/env python3
"""Checks that each file named on the command line is strict JSON.

Usage: python3 tools/check_json.py FILE [FILE ...]

Every file must parse with json.load, and no value may be NaN or +/-Infinity
(Python accepts those tokens by default; other JSON readers do not). Exits 1
and names the file on the first failure, 0 when every file is valid.
"""
import json
import sys


def reject_constant(token):
    raise ValueError(f"non-finite number {token}")


def main(paths):
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f, parse_constant=reject_constant)
        except (OSError, ValueError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 1
        print(f"{path}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
