"""The one reader of input files and the one number rule."""

import ast
import math
from pathlib import Path

import pytest

from roadsift.inputs import (
    are_numbers,
    is_number,
    json_files,
    positive,
    read_json,
    read_text,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "roadsift"


def _reads(tree):
    """The calls in a module that parse JSON or read a file: json.load(s),
    any .read_text() or .read_bytes(), and open() or .open() without a
    mode or in a read mode."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if (name in ("load", "loads") and isinstance(func, ast.Attribute)
                and getattr(func.value, "id", None) == "json"):
            yield node.lineno, f"json.{name}"
        elif name in ("read_text", "read_bytes") and isinstance(func, ast.Attribute):
            yield node.lineno, name
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = (node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]) or modes
            if not (mode and isinstance(mode[0], ast.Constant)
                    and "r" not in mode[0].value and "+" not in mode[0].value):
                yield node.lineno, "open"


def test_only_inputs_reads_files():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "inputs.py":
            continue
        found += [f"{path.relative_to(PACKAGE)}:{line}: {what}"
                  for line, what in _reads(ast.parse(path.read_text()))]
    assert found == []


def test_the_scan_sees_reads():
    tree = ast.parse("json.loads(s)\nPath(p).read_text()\nopen(p)\n"
                     "open(p, 'rb')\nPath(p).open()\nopen(p, 'w')\n")
    assert [what for _, what in _reads(tree)] == [
        "json.loads", "read_text", "open", "open", "open"]


@pytest.mark.parametrize("value, number", [
    (0, True), (-1.5, True), (10**300, True), (1e308, True),
    (None, False), (True, False), ("1", False), ([1.0], False),
    (math.nan, False), (math.inf, False), (-math.inf, False), (10**400, False),
])
def test_is_number(value, number):
    assert is_number(value) is number


@pytest.mark.parametrize("values, numbers", [
    ([], True), ([0, -1.5, 10**300], True), ([1.0, None], False),
    ([True, 1], False), ([1, 10**400], False), ([math.nan, 1.0], False),
    ([2.0, "3"], False),
])
def test_are_numbers(values, numbers):
    assert are_numbers(values) is numbers


@pytest.mark.parametrize("value", [None, True, "1", [1.0], math.nan, math.inf,
                                   10**400, 0, -1.0])
def test_positive_refuses(value):
    with pytest.raises(ValueError, match="x .* is not a finite number > 0"):
        positive("x", value)


@pytest.mark.parametrize("content, words", [
    (None, "No such file"),
    (b'{"a": 1,\n\xff}', "line 2: byte 0xff is not UTF-8"),
    (b'{"a": 1,\n}', "line 2 column 1"),
    (b"[" * 200_000, "nested too deep"),
])
def test_read_json_names_the_file(tmp_path, content, words):
    path = tmp_path / "f.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        read_json(path)
    assert str(info.value).startswith(f"{path}") and words in str(info.value)


def test_read_text_names_a_directory(tmp_path):
    with pytest.raises(ValueError, match=str(tmp_path)):
        read_text(tmp_path)


def test_json_files(tmp_path):
    for name in ("b.json", "a.json", "c.txt"):
        (tmp_path / name).write_text("{}")
    assert json_files(tmp_path) == [tmp_path / "a.json", tmp_path / "b.json"]
    for missing in (tmp_path / "nowhere", tmp_path / "a.json"):
        with pytest.raises(ValueError, match=str(missing)):
            json_files(missing)
