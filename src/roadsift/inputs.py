"""The one reader of the files a user names, and the one number rule:
read_text, read_json and read_json_rows raise ValueError naming the path
(and the line where known) for a file that cannot be read, is not UTF-8 or
not JSON.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

# json's own C scanner of one value and its whitespace rule
_scan = json.JSONDecoder().scan_once
_space = json.decoder.WHITESPACE.match


def read_text(path: str | Path) -> str:
    """A file's text; raises ValueError naming the file when it cannot be
    read, and the line of the first byte that is not UTF-8."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: byte {data[exc.start]:#04x} "
                         "is not UTF-8") from None


def read_json(path: str | Path):
    """A JSON file's value; raises ValueError naming the file as read_text
    does, and when it is not JSON, holds an integer too long for int() to
    convert or is nested too deep to parse."""
    return _parsed(path, read_text(path))


def _parsed(path: str | Path, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or int()'s digit limit
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deep to parse") from None


def read_json_rows(path: str | Path, key: str, skip: re.Pattern):
    """read_json of a file, except that in each object of a top-level list
    the value of key is read as [] without being built when skip matches
    its text; skip must match only the text of a JSON list. Every other
    value is read by json's scanner, as json.loads reads it. A file this
    scan does not follow (the top level is not a list, a separator is
    missing, text follows the list, ...) is read by read_json's json.loads,
    so the reader accepts what read_json accepts and raises its errors."""
    text = read_text(path)
    try:
        return _rows(text, key, skip)
    except (ValueError, StopIteration, RecursionError):
        return _parsed(path, text)


def _next(text: str, pos: int) -> tuple[str, int]:
    """The character at pos and the position past it and the whitespace
    after it."""
    return text[pos:pos + 1], _space(text, pos + 1).end()


def _rows(text: str, key: str, skip: re.Pattern) -> list:
    """read_json_rows' scan of a JSON list; ValueError or StopIteration
    where it stops following the text."""
    c, pos = _next(text, _space(text).end())
    if c != "[":
        raise ValueError("not a list")
    rows = []
    if text.startswith("]", pos):
        c, pos = _next(text, pos)
    else:
        c = ","
        while c == ",":
            row, pos = _row(text, pos, key, skip)
            rows.append(row)
            c, pos = _next(text, _space(text, pos).end())
    if c != "]" or pos != len(text):
        raise ValueError("not one list")
    return rows


def _row(text: str, pos: int, key: str, skip: re.Pattern) -> tuple[object, int]:
    """The list item at pos and the position past it. An object is read
    member by member, so that key's value can be skipped."""
    if not text.startswith("{", pos):
        return _scan(text, pos)
    row = {}
    c, pos = _next(text, pos)
    if text.startswith("}", pos):
        return row, pos + 1
    c = ","
    while c == ",":
        if not text.startswith('"', pos):
            raise ValueError("no member name")
        name, pos = _scan(text, pos)
        c, pos = _next(text, _space(text, pos).end())
        if c != ":":
            raise ValueError("no colon")
        skipped = skip.match(text, pos) if name == key else None
        if skipped:
            row[name], pos = [], skipped.end()
        else:
            row[name], pos = _scan(text, pos)
        c, pos = _next(text, _space(text, pos).end())
    if c != "}":
        raise ValueError("no closing brace")
    return row, pos


def json_files(directory: str | Path) -> list[Path]:
    """The .json files in a directory, in name order. Raises ValueError
    naming the directory when it is missing, not a directory or cannot be
    listed."""
    try:
        return sorted(p for p in Path(directory).iterdir()
                      if p.name.endswith(".json"))
    except OSError as exc:
        raise ValueError(f"{directory}: {exc.strerror or exc}") from None


def are_numbers(values) -> bool:
    """The number rule: whether every value is a JSON number, not a bool,
    that a float holds finitely. It takes a whole list, so that a trace of
    thousands of values is checked by a few C loops, not a call a value."""
    try:
        return (set(map(type, values)) <= {int, float}
                and all(map(math.isfinite, values)))
    except OverflowError:                 # an integer past a float's range
        return False


def is_number(value) -> bool:
    """Whether value alone keeps the number rule."""
    return are_numbers((value,))


def positive(name: str, value) -> float:
    """value as a float when it is a finite number > 0; otherwise
    ValueError naming it."""
    if not (is_number(value) and value > 0):
        raise ValueError(f"{name} {value!r} is not a finite number > 0")
    return float(value)


def is_vector(value, d: int) -> bool:
    """Whether value is a list of d finite numbers."""
    return isinstance(value, list) and len(value) == d and are_numbers(value)
