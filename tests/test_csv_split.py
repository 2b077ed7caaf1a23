"""The block-split CSV path against csv.reader.

``dataset._csv_columns`` reads a plain text (no quote, carriage return or
NUL, no line over the field limit, the header's cell count on every
non-blank line) a block of whole lines at a time, each block split once on
commas, and sends any other text through ``csv.reader``. On every text both
paths must give the same columns, or the same error class, message and line;
the reader path is called directly by making ``_split_blocks`` decline. The
blocks are patched down to a few lines, so texts cross many block boundaries,
and must read what one whole-file block reads.
"""

import csv
import importlib.util
import time
import tracemalloc
from itertools import chain
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
    with mock.patch.object(dataset, "_split_blocks", lambda text, width: iter([None])):
        return _outcome(text)


def _in_blocks(text, chars):
    with mock.patch.object(dataset, "_BLOCK_CHARS", chars):
        return _outcome(text)


def _outcome_whole(text):
    return _in_blocks(text, len(text) + 1)


def _blocks(text):
    return list(dataset._split_blocks(text, text.split("\n", 1)[0].count(",") + 1))


def _split(text):
    """The cells of every block, column by column; None when the split declines."""
    blocks = _blocks(text)
    if any(b is None for b in blocks):
        return None
    return [list(chain.from_iterable(column)) for column in zip(*blocks)]


@pytest.fixture(params=[None, 1, 24], ids=["whole", "block-1", "block-24"])
def block(request, monkeypatch):
    """The block size: the module's (one block for these texts), or a line or
    two per block."""
    if request.param:
        monkeypatch.setattr(dataset, "_BLOCK_CHARS", request.param)


@settings(max_examples=300, deadline=None, database=None)
@given(text=texts(), chars=st.sampled_from([1, 2, 16, 40]))
def test_the_split_reads_what_csv_reader_reads(text, chars):
    outcome = _outcome(text)
    event(f"split: {_split(text) is not None}, {outcome[0]}")
    assert outcome == _via_reader(text)
    with mock.patch.object(dataset, "_BLOCK_CHARS", chars):
        event(f"blocks: {min(len(_blocks(text)), 4)}")
        assert _outcome(text) == outcome


@pytest.mark.parametrize("body", [
    "\n\na,cpu,1024,0,0.25,0.5\n\n",  # blank lines
    "a,cpu,1024,0,0.25,0.5\n     ,  ,1,1, , \n",  # whitespace cells
    "é,gpu,1024,0,,0.5\nk\ud800,cpu,2048,1,0.1,\n",  # non-ASCII, a lone surrogate, empty cells
    "x\x0by,cpu,1024,0,1,2\np q,cpu,1024,0,1,2\n",  # separators str.splitlines breaks on
    ",,,,,\n",  # only commas
    "a,cpu,1024,0,0.25,0.5",  # no newline at the end
    "",  # the header alone
])
def test_plain_texts_take_the_split(body, block):
    text = HEADER + "\n" + body
    assert _split(text) is not None
    assert _outcome(text) == _via_reader(text)


@pytest.mark.parametrize("body, message", [
    ("a,cpu,1024,0,0.5\nb,cpu,1024,0,0.5,0.5,0.5\n", "line 2: expected 6 cells, got 5"),
    ("a,cpu,1024,0,0.25,0.5\n \n", "line 3: expected 6 cells, got 1"),
    ('a,cpu,1024,0,"0.25",0.5\n"b,c",cpu,1024,0\n', "line 3: expected 6 cells, got 4"),
    ("a,cpu,1024,0,0.25,0.5\r\nb,cpu,1024,0,0.25\r\n", "line 3: expected 6 cells, got 5"),
], ids=["short-and-long", "whitespace-line", "quotes", "crlf"])
def test_other_texts_go_through_csv_reader(body, message, block):
    text = HEADER + "\n" + body
    assert _split(text) is None
    assert _outcome(text) == _via_reader(text)
    with pytest.raises(KstError, match=f"^{message}$"):
        dataset._csv_columns(text)


def test_a_nul_goes_through_csv_reader(block):
    # Python 3.10's csv.reader rejects NUL and 3.11's reads it: either way
    # the split must not decide
    text = HEADER + "\na\x00b,cpu,1024,0,0.25,0.5\n"
    assert _split(text) is None
    assert _outcome(text) == _via_reader(text)


def test_a_line_over_the_field_limit_goes_through_csv_reader(block):
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


CLEAN = ["a,cpu,1024,0,0.25,0.5", "b,gpu,2048,1,,0.5", "c,cpu,1024,2,1e-3,"]


@pytest.mark.parametrize("last, message", [
    ("d,cpu,1024,0,0.25,x", "line 8: metric 'm2' is not a number: 'x'"),
    ("d,cpu,1024,0,inf,0.5", "line 8: metric 'm1' has non-finite value 'inf'"),
    ("d,cpu,1024.5,0,0.25,0.5", "line 8: problem_size_bytes is not an integer: '1024.5'"),
    ("d,cpu,1024,-1,0.25,0.5", "line 8: trial must be a non-negative integer, got -1"),
    ("d,tpu,1024,0,0.25,0.5", "line 8: unknown platform 'tpu'"),
], ids=["float", "non-finite", "size", "trial", "platform"])
def test_a_bad_record_in_the_last_block(last, message, block):
    text = "\n".join([HEADER] + CLEAN * 2 + [last]) + "\n"
    assert _split(text) is not None
    assert _outcome(text) == _via_reader(text)
    with pytest.raises(KstError, match=f"^{message}$"):
        dataset._csv_columns(text)


@pytest.mark.parametrize("later", [
    "z,cpu,1024,0,0.5", "z,cpu,1024,0,0.5,x", "z,tpu,1024,0,0.5,0.5",
], ids=["cell-count", "value", "platform"])
@pytest.mark.parametrize("bad, message", [
    ("a,cpu,1024,0,x,0.5", "line 3: metric 'm1' is not a number: 'x'"),
    ("a@1,cpu,1024,0,0.25,0.5", "line 3: kernel name must not contain '@', got 'a@1'"),
], ids=["cell", "row-rule"])
def test_an_early_bad_value_beats_a_later_bad_line(bad, message, later, block):
    # a later wrong cell count sends a whole-file block to csv.reader, while
    # small blocks stop at the bad value's block; a row rule is checked once
    # the blocks are joined: the same first error either way
    text = "\n".join([HEADER, CLEAN[1], bad] + CLEAN * 3 + [later]) + "\n"
    assert _outcome(text) == _via_reader(text)
    with pytest.raises(KstError, match=f"^{message}$"):
        dataset._csv_columns(text)


def test_a_block_boundary_right_after_a_blank_line():
    lines = [f"{k},cpu,1024,0,0.25,0.5" for k in "abc"]
    text = HEADER + "\n" + "\n\n".join(lines) + "\n"
    # a block ends at the first newline at least this far past its start:
    # the blank line's own
    chars = len(lines[0]) + 1
    with mock.patch.object(dataset, "_BLOCK_CHARS", chars):
        blocks = _blocks(text)
        assert [len(b[0]) for b in blocks] == [1, 1, 1]
        assert _outcome(text) == _outcome_whole(text) == _via_reader(text)


def test_a_last_line_without_a_newline():
    text = "\n".join([HEADER] + CLEAN * 3)
    for chars in (1, len(CLEAN[0]), len(text)):
        with mock.patch.object(dataset, "_BLOCK_CHARS", chars):
            assert len(_split(text)[0]) == 9
            assert _outcome(text) == _via_reader(text)


def test_a_line_longer_than_one_block():
    long = f"long,cpu,1024,0,{'1' * 60},{'2' * 60}"
    text = "\n".join([HEADER, CLEAN[0], long, CLEAN[1]]) + "\n"
    with mock.patch.object(dataset, "_BLOCK_CHARS", 8):
        blocks = _blocks(text)
        assert [len(b[0]) for b in blocks] == [1, 1, 1]
        assert blocks[1][5] == ["2" * 60]
        assert _outcome(text) == _outcome_whole(text) == _via_reader(text)


def _perfbench_gen():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.mark.parametrize("chars", [1, 100, 5000])
@pytest.mark.parametrize("platform", ["cpu", "gpu"])
def test_small_blocks_give_the_whole_file_samples(platform, chars):
    # key tables in the same order, the same codes, the same float bits and
    # layouts, on perfbench's own files
    gen = _perfbench_gen()
    text = (gen.cpu_csv if platform == "cpu" else gen.gpu_csv)(
        20, (1048576, 4194304), 3, 11).decode()
    outcome = _in_blocks(text, chars)
    assert outcome[0] == "columns" and len(outcome[2][0]) == 120
    assert outcome == _outcome_whole(text)


# The parse's traced peak on the 12,000-row GPU file of perfbench's
# ingest-pipeline (0.97 MB of text): 2.8 MiB with 64K-character blocks, and
# 11.7 MiB when the whole file was split into one string per cell at once.
PARSE_PEAK_BOUND = 4 << 20


def test_the_parse_holds_about_one_block_of_cells():
    data = _perfbench_gen().gpu_csv(300, (16777216, 67108864, 268435456, 1073741824), 10, 7)
    dataset.parse_samples(data)  # imports and caches outside the traced call
    start = time.perf_counter()
    tracemalloc.start()
    try:
        samples = dataset.parse_samples(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == 12000
    assert peak < PARSE_PEAK_BOUND, f"traced parse peak {peak / 2**20:.2f} MiB"
    assert time.perf_counter() - start < 1.0
