"""The one-split CSV path against csv.reader.

``dataset._csv_columns`` splits a plain text (no quote, carriage return or
NUL, no line over the field limit, the header's cell count on every
non-blank line) once on commas and sends any other text through
``csv.reader``. On every text both paths must give the same columns, or the
same error class, message and line; the reader path is called directly by
making ``_split_columns`` decline.
"""

import csv
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kst import dataset
from kst.errors import KstError

HEADER = "kernel,platform,problem_size_bytes,trial,m1,m2"
WIDTH = HEADER.count(",") + 1
GOLDEN = Path(__file__).parent / "golden"

# (good, hostile) cells per column: good ones (non-ASCII, a lone surrogate
# and separators that str.splitlines would break on among them) let records
# get past the first check; hostile ones are whitespace, text that is no
# number, and values a check rejects
KERNELS = (["a", "b", " a", "é", "k\ud800", "x\x0by", "p\u2028q"], ["", "a@1"])
PLATFORMS = (["cpu", "gpu", " GPU "], ["tpu", ""])
INTEGERS = (["1024", "2048", " 0", "1", "1e3"], ["1.5", "x", "", "-1"])
NUMBERS = (["0.25", "0.5", "", " 1e-3 ", "\x1c0.5"], ["nan", "inf", "abc", "1e999", "\x85"])
FREE = st.text(st.characters(exclude_characters='",\n\r\x00', exclude_categories=()),
               max_size=4)


@st.composite
def records(draw, clean):
    """One line of the body: a record, or a blank, whitespace, comma-only,
    short or long line."""
    kind = "record" if clean else draw(st.sampled_from(
        ["record"] * 3 + ["blank", "space", "commas", "short", "long"]))
    if kind == "blank":
        return ""
    if kind == "space":
        return draw(st.sampled_from([" ", "\t", "  \t "]))
    if kind == "commas":
        return "," * draw(st.sampled_from([WIDTH - 1, WIDTH - 2, WIDTH]))

    def cell(choices):
        good, hostile = choices
        if clean:
            return draw(st.sampled_from(good))
        return draw(st.one_of(st.sampled_from(good), st.sampled_from(hostile), FREE))

    cells = [cell(c) for c in (KERNELS, PLATFORMS, INTEGERS, INTEGERS, NUMBERS, NUMBERS)]
    if kind == "short":
        del cells[draw(st.integers(0, WIDTH - 1)):]
    elif kind == "long":
        cells += [cell(NUMBERS) for _ in range(draw(st.integers(1, 2)))]
    return ",".join(cells)


@st.composite
def texts(draw):
    clean = draw(st.booleans())
    lines = [HEADER] + draw(st.lists(st.one_of(records(clean), st.just("")), max_size=8))
    if draw(st.booleans()):  # one short line and one long one: the comma total is right
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = ["a,cpu,1024,0,0.5", "b,cpu,1024,0,0.5,0.5,0.5"]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(text):
    """The columns ``_csv_columns`` reads from ``text``, or its error."""
    try:
        s = dataset._csv_columns(text)
    except KstError as exc:
        return "error", type(exc), str(exc), getattr(exc, "line", None)
    return ("columns", [list(table.items()) for table in vars(s.keys).values()],
            [c.tolist() for c in (s.kernel, s.platform, s.size, s.trial, s.layout)],
            [(n, v.tobytes()) for n, v in s.values.items()])  # NaN marks an absent metric


def _via_reader(text):
    with mock.patch.object(dataset, "_split_columns", lambda text, width: None):
        return _outcome(text)


def _split(text):
    return dataset._split_columns(text, text.split("\n", 1)[0].count(",") + 1)


@settings(max_examples=300, deadline=None, database=None)
@given(text=texts())
def test_the_split_reads_what_csv_reader_reads(text):
    outcome = _outcome(text)
    event(f"split: {_split(text) is not None}, {outcome[0]}")
    assert outcome == _via_reader(text)


@pytest.mark.parametrize("body", [
    "\n\na,cpu,1024,0,0.25,0.5\n\n",  # blank lines
    "a,cpu,1024,0,0.25,0.5\n     ,  ,1,1, , \n",  # whitespace cells
    "é,gpu,1024,0,,0.5\nk\ud800,cpu,2048,1,0.1,\n",  # non-ASCII, a lone surrogate, empty cells
    "x\x0by,cpu,1024,0,1,2\np q,cpu,1024,0,1,2\n",  # separators str.splitlines breaks on
    ",,,,,\n",  # only commas
    "a,cpu,1024,0,0.25,0.5",  # no newline at the end
    "",  # the header alone
])
def test_plain_texts_take_the_split(body):
    text = HEADER + "\n" + body
    assert _split(text) is not None
    assert _outcome(text) == _via_reader(text)


@pytest.mark.parametrize("body, message", [
    ("a,cpu,1024,0,0.5\nb,cpu,1024,0,0.5,0.5,0.5\n", "line 2: expected 6 cells, got 5"),
    ("a,cpu,1024,0,0.25,0.5\n \n", "line 3: expected 6 cells, got 1"),
    ('a,cpu,1024,0,"0.25",0.5\n"b,c",cpu,1024,0\n', "line 3: expected 6 cells, got 4"),
    ("a,cpu,1024,0,0.25,0.5\r\nb,cpu,1024,0,0.25\r\n", "line 3: expected 6 cells, got 5"),
], ids=["short-and-long", "whitespace-line", "quotes", "crlf"])
def test_other_texts_go_through_csv_reader(body, message):
    text = HEADER + "\n" + body
    assert _split(text) is None
    assert _outcome(text) == _via_reader(text)
    with pytest.raises(KstError, match=f"^{message}$"):
        dataset._csv_columns(text)


def test_a_nul_goes_through_csv_reader():
    # Python 3.10's csv.reader rejects NUL and 3.11's reads it: either way
    # the split must not decide
    text = HEADER + "\na\x00b,cpu,1024,0,0.25,0.5\n"
    assert _split(text) is None
    assert _outcome(text) == _via_reader(text)


def test_a_line_over_the_field_limit_goes_through_csv_reader():
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(40)
        fits = "a,cpu,1024,0,0.25,0.5"
        assert _split(HEADER + "\n" + fits + "\n") is not None
        # no cell is over the limit, but the line is: the reader reads it
        long_line = HEADER + "\n" + f"a,cpu,1024,0,{'1' * 30},{'2' * 30}\n"
        assert _split(long_line) is None
        assert _outcome(long_line) == _via_reader(long_line)
        assert dataset._csv_columns(long_line).values["m2"].tolist() == [float("2" * 30)]
        # a cell over the limit is the reader's error, at its line
        over = HEADER + "\n" + fits + "\n" + f"b,cpu,1024,0,{'1' * 41},0.5\n"
        assert _split(over) is None
        assert _outcome(over) == _via_reader(over)
        assert _outcome(over)[2:] == ("line 3: field larger than field limit (40)", 3)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("name", ["cpu.csv", "gpu.csv"])
def test_benchmark_shaped_files_take_the_split(name):
    # the golden inputs are in perfbench/gen.py's format; a change that sent
    # them back through csv.reader would slow every benchmark parse
    text = (GOLDEN / name).read_text()
    columns = _split(text)
    assert columns is not None and len(columns[0]) == text.count("\n") - 1
    assert _outcome(text) == _via_reader(text)
