#!/usr/bin/env python3
"""Checks that each JSON file holds exactly the key paths a schema lists.

Usage: python3 tools/check_json_schema.py SCHEMA FILE [FILE ...]

SCHEMA lines read `<file name> <path> <type>`: the path joins keys with '.'
and marks array elements with '[]' (`shards[].frames`); the type is object,
array, string, number or bool; '#' starts a comment line. Each FILE must be
strict JSON (check_json.py) with the same set of paths the schema lists
under its base name, so a renamed, dropped, retyped or unlisted key fails.
Exits 1 and prints the differing lines on the first failure, else 0.
"""
import json
import os
import sys

from check_json import reject_constant

TYPES = {dict: "object", list: "array", str: "string", bool: "bool"}


def key_paths(value, prefix=""):
    items = value.items() if isinstance(value, dict) else []
    if isinstance(value, list):
        items = [("[]", child) for child in value]
    paths = set()
    for key, child in items:
        path = prefix + key if key == "[]" or not prefix else f"{prefix}.{key}"
        # JsonWriter writes a non-finite double as null: null is a number.
        paths.add((path, TYPES.get(type(child), "number")))
        paths |= key_paths(child, path)
    return paths


def main(args):
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema = {}
    with open(args[0], encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                name, path, kind = line.split()
                schema.setdefault(name, set()).add((path, kind))
    for path in args[1:]:
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as f:
                found = key_paths(json.load(f, parse_constant=reject_constant))
        except (OSError, ValueError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 1
        want = schema.get(name, set())
        for label, diff in (("missing", want - found), ("not in schema", found - want)):
            for key, kind in sorted(diff):
                print(f"{path}: {label}: {name} {key} {kind}", file=sys.stderr)
        if found != want:
            return 1
        print(f"{path}: {len(found)} key paths match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
