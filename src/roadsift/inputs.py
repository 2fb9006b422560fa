"""The one reader of the files a user names, and the one number rule for
values and text: read_text, read_json and read_json_rows raise ValueError
naming the path (and the line where known) for a file that cannot be read,
is not UTF-8 or not JSON. Only json.loads parses JSON.
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
    return _parsed(path, read_text(path))


def _parsed(path: str | Path, text: str):
    try:
        return json.loads(text)
    except ValueError as exc:     # JSONDecodeError, or int()'s digit limit
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deep to parse") from None


def read_json_rows(path: str | Path, key: str, skip: re.Pattern):
    """read_json of a file, except that in a top-level list each member
    named key whose value skip matches is read as [] without being built:
    one substitution cuts those values out of the text json.loads reads.
    skip must match only the text of a JSON list, and by its lookahead
    only in a top-level row. The file's bytes are cut, with skip's pattern
    encoded, and only the cut text is decoded, so no str of the whole
    file is made and its bytes are freed before the parse; since UTF-8
    puts no ASCII byte inside another character and the name and pattern
    are ASCII, the cut is the one the decoded text would get. Text that
    then does not decode or parse is read again as read_json reads it, so
    the reader accepts what read_json accepts and raises its errors, at
    their lines."""
    data = _read_bytes(path)
    cut = _cut(data, key, skip)
    del data
    if cut is not None:
        try:
            return json.loads(cut.decode())
        except (ValueError, RecursionError):   # UnicodeDecodeError too
            pass
    return read_json(path)


def _cut(data: bytes, key: str, skip: re.Pattern) -> bytes | None:
    """data with each member named key whose value skip matches replaced
    by key: [], or None when data's top level does not open a list."""
    if not data.lstrip().startswith(b"["):
        return None
    name = json.dumps(key)
    # (?<!\\): in a name such as "x\"trace", the escaped quote starts none
    member = rf"(?<!\\){re.escape(name)}: (?:{skip.pattern})".encode()
    empty = f"{name}: []".encode()
    return re.sub(member, lambda _: empty, data)


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
