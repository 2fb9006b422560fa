"""The one reader of input files and the one number rule."""

import ast
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from roadsift.inputs import (
    are_numbers,
    is_number,
    json_files,
    positive,
    read_json,
    read_json_rows,
    read_text,
)
from roadsift.oracle import DriverConfig, build_dataset, save_dataset
from roadsift.oracle import _saved_trace

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


@pytest.fixture(scope="module")
def saved_text(tmp_path_factory):
    """The text save_dataset writes for two tests, each trace cut to two
    states."""
    tests = build_dataset(2, DriverConfig(), 5)
    for tc in tests:
        tc.outcome = dataclasses.replace(tc.outcome, trace=tc.outcome.trace[:2])
    path = tmp_path_factory.mktemp("rows") / "saved.json"
    save_dataset(path, tests)
    return path.read_text()


def _first_trace(text: str) -> tuple[int, int]:
    """Where the first row's trace value starts and ends in saved text."""
    start = text.index('"trace": ') + len('"trace": ')
    return start, text.index("\n }", start)


def _with_first_trace(text: str, value: str) -> str:
    start, end = _first_trace(text)
    return text[:start] + value + text[end:]


def _with_first_speed(text: str, value: str) -> str:
    """text with the first trace state's speed replaced by value."""
    m = re.compile(r'"speed": ([^,]+)').search(text, _first_trace(text)[0])
    return text[:m.start(1)] + value + text[m.end(1):]


# (how the saved text is changed, which rows' traces the reader skips):
# each must read as json.loads reads it, but for those traces, or fail with
# read_json's error
ROW_CASES = {
    "unchanged": (lambda t: t, [0, 1]),
    "second_trace_key_wins": (
        lambda t: t.replace("\n  ]\n }", '\n  ],\n  "trace": 5\n }', 1), [1]),
    "second_trace_key_skipped": (
        lambda t: t.replace('{\n  "id"', '{\n  "trace": 5,\n  "id"', 1), [0, 1]),
    "trace_key_in_features": (
        lambda t: t.replace('"features": {\n',
                            '"features": {\n  "trace": %s,\n'
                            % t[slice(*_first_trace(t))], 1), [0, 1]),
    "nan_in_trace": (lambda t: _with_first_speed(t, "NaN"), [1]),
    "past_float_in_trace": (lambda t: _with_first_speed(t, "1e999"), [0, 1]),
    "leading_zero_in_trace": (lambda t: _with_first_speed(t, "01.5"), []),
    "long_int_in_trace": (lambda t: _with_first_speed(t, "9" * 5000), [1]),
    "trace_object": (lambda t: _with_first_trace(t, "{}"), [1]),
    "trace_number": (lambda t: _with_first_trace(t, "5"), [1]),
    "trace_mixed_list": (lambda t: _with_first_trace(t, '[1, "a"]'), [1]),
    "trace_empty": (lambda t: _with_first_trace(t, "[]"), [0, 1]),
    "compact": (lambda t: json.dumps(json.loads(t)), []),
    "truncated_mid_number": (
        lambda t: t[:re.compile(r'"speed": \d').search(t).end()], []),
    "empty_list": (lambda t: "[]", []),
    "empty_list_with_space": (lambda t: " \n[ \n]\n", []),
    "trailing_text": (lambda t: t + "x", []),
    "second_list": (lambda t: t + "[]", []),
    "byte_order_mark": (lambda t: "\ufeff" + t, []),
    "top_level_object": (lambda t: '{"rows": %s}' % t, []),
    "row_not_object": (lambda t: t.replace("[\n {", "[\n 7,\n {", 1), [0, 1]),
    "row_closed_by_bracket": (lambda t: t.replace("\n }", "\n ]", 1), []),
    "trailing_comma": (lambda t: t.replace("\n }", "\n },", 1), []),
    "trace_under_escaped_quote_name": (
        lambda t: t.replace('"trace": ', '"x\\"trace": ', 1), [1]),
    "trace_closing_features_as_a_row": (
        lambda t: t.replace('\n  },\n  "label"',
                            ',\n  "trace": %s\n },\n  "label"'
                            % t[slice(*_first_trace(t))], 1), [0, 1]),
    "trace_not_last_member": (
        lambda t: t.replace("\n  ]\n }", '\n  ],\n  "x": 1\n }', 1), [1]),
    # an ASCII byte JSON refuses, in a file cut on its bytes
    "nul_byte_in_id": (lambda t: t.replace('"id": "', '"id": "\x00', 1), []),
    # a member named outside ASCII: its UTF-8 bytes hold no ASCII byte
    "non_ascii_member": (
        lambda t: t.replace('{\n  "id"', '{\n  "\u00e9": "\u00fc",\n  "id"', 1),
        [0, 1]),
}


@pytest.mark.parametrize("case", list(ROW_CASES))
def test_read_json_rows_reads_as_json_does(saved_text, tmp_path, case):
    change, skipped = ROW_CASES[case]
    path = tmp_path / "rows.json"
    path.write_text(change(saved_text))
    try:
        want = read_json(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_json_rows(path, "trace", _saved_trace())
        assert str(info.value) == str(exc)
        return
    rows = [row for row in want if isinstance(row, dict)] \
        if isinstance(want, list) else []
    for i in skipped:
        rows[i]["trace"] = []
    got = read_json_rows(path, "trace", _saved_trace())
    # as JSON text, so that a NaN equals itself and 1 differs from 1.0
    assert json.dumps(got) == json.dumps(want)
