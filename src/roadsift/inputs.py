"""The one reader of the files a user names, and the one number rule for
values and text: read_text, read_json and read_json_cut, which parses a
file's bytes after a caller's cut, raise ValueError naming the path (and
the line where known) for a file that cannot be read, is not UTF-8 or not
JSON. Only json.loads parses JSON.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path


def read_text(path: str | Path) -> str:
    """A file's text; raises ValueError naming the file when it cannot be
    read, and the line of the first byte that is not UTF-8."""
    data = _read_bytes(path)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: byte {data[exc.start]:#04x} "
                         "is not UTF-8") from None


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None


def read_json(path: str | Path):
    """A JSON file's value; raises ValueError naming the file as read_text
    does, and when it is not JSON, holds an integer too long for int() to
    convert or is nested too deep to parse."""
    text = read_text(path)
    try:
        return json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or int()'s digit limit
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deep to parse") from None


def read_json_cut(path: str | Path, pattern: re.Pattern, replacement: bytes):
    """json.loads of a file's bytes with each match of the bytes pattern
    replaced by replacement. No str of the whole file is made, and its
    bytes are freed before the parse. Cut text that does not decode or
    parse is read again by read_json, so its errors and their lines are
    read_json's."""
    data = _read_bytes(path)
    cut = pattern.sub(lambda _: replacement, data)
    del data
    try:
        return json.loads(cut.decode())
    except (ValueError, RecursionError):   # UnicodeDecodeError too
        return read_json(path)


def json_files(directory: str | Path) -> list[Path]:
    """The .json files in a directory, in name order. Raises ValueError
    naming the directory when it is missing, not a directory or cannot be
    listed."""
    try:
        return sorted(p for p in Path(directory).iterdir()
                      if p.name.endswith(".json"))
    except OSError as exc:
        raise ValueError(f"{directory}: {exc.strerror or exc}") from None


# the JSON number grammar in ASCII digits: the one rule for number text.
# NaN and Infinity are not in it. At most 100 digits before the point keep
# an integer under int()'s limit on the digits it converts. The optional
# parts are written "(?:...|)", which re matches faster than "(?:...)?"
NUMBER = r"-?(?:[1-9][0-9]{0,99}|0)(?:\.[0-9]+|)(?:[eE][-+]?[0-9]+|)"


def are_numbers(values) -> bool:
    """The number rule: whether every value is a JSON number, not a bool,
    that a float holds finitely. It takes a whole list, so that a list of
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
