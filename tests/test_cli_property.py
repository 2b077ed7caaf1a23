"""The CLI property over hostile input.

Small CSV and JSON sample files, each run with one mutation (a bad cell, a
huge or non-finite number, a duplicate key, a hostile kernel name, a
fraction above 1, a negative counter, a zero or tiny GPU time), go through
all five subcommands in-process. Every command must exit 0 or 2, and 2 on a
metric given twice; an exit of 2 prints nothing on stdout and one JSON line
on stderr, and leaves no ``--out``; no command writes outside its ``--out``;
and no numpy RuntimeWarning escapes.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kst import cli
from kst.dataset import CPU_TOPDOWN_METRICS, GPU_COUNTER_METRICS, GPU_TIME_METRIC

from conftest import IDENTITY_HEADER

SIZES = {"cpu": (1024, 2048), "gpu": (4096, 8192)}
METRICS = {"cpu": CPU_TOPDOWN_METRICS, "gpu": (GPU_TIME_METRIC,) + GPU_COUNTER_METRICS}


class Raw(str):
    """A cell written as this text in CSV and as ``json`` (default: the same
    text) in JSON."""

    def __new__(cls, text, json=None):
        cell = super().__new__(cls, text)
        cell.json = text if json is None else json
        return cell


# mutation -> (the metrics it may hit, None for any; the values it puts there)
VALUES = {
    "bad cell": (None, [Raw("abc", '"abc"'), Raw("", "null"), Raw("1,5", '"1,5"'),
                        Raw("0x10", '"0x10"'), Raw("true")]),
    "huge number": (None, [Raw("1e999"), Raw("-1e999"), Raw("9" * 400), Raw("1e300"),
                           Raw("1.7976931348623157e308")]),
    "non-finite": (None, [Raw("nan", "NaN"), Raw("inf", "Infinity"), Raw("-inf", "-Infinity")]),
    "fraction above 1": (CPU_TOPDOWN_METRICS, [Raw("1.5"), Raw("1.0000000000000002")]),
    "negative counter": (GPU_COUNTER_METRICS, [Raw("-1"), Raw("-1e-300")]),
    "zero or tiny time": ((GPU_TIME_METRIC,), [Raw("0"), Raw("-0.0"), Raw("5e-324"),
                                               Raw("1e-290")]),
}
NAMES = ["a/b", "../../up", "a\\b", "a\x00b", "k@1", "summary", "\ud800", "x\ud800y", "%2F",
         "n" * 300, "é" * 130, "", " ", "a\nb"]
# each (mutation, value) is a case of its own, so every one is run
CASES = ([(kind, value) for kind, (_, values) in VALUES.items() for value in values]
         + [("hostile name", name) for name in NAMES]
         + [("duplicate sample", None), ("duplicate field", None)])


def _values(platform, ki, rnd):
    if platform == "cpu":
        bound = ki % 2 == 0
        return [(0.04 if bound else 0.6) + rnd.uniform(0, 0.01),
                (0.9 if bound else 0.2) + rnd.uniform(0, 0.01),
                0.02 + rnd.uniform(0, 0.01), 0.03 + rnd.uniform(0, 0.01)]
    scale = 1e9 if ki % 2 == 0 else 1e6
    l1 = scale * (1 + rnd.uniform(0, 0.2))
    return [0.01 * (1 + ki * 0.1) * (1 + rnd.uniform(0, 0.05)),
            l1, l1 * 0.4, l1 * 0.1, 5e8 * (1 + rnd.uniform(0, 0.5))]


@st.composite
def sample_files(draw, kind, value):
    """The files, as (format, header, rows), and a kernel no mutation renames."""
    rnd = draw(st.randoms(use_true_random=False))
    kernels = [f"k{i}" for i in range(draw(st.integers(3, 4)))]
    metrics = VALUES.get(kind, (None,))[0]
    platforms = draw(st.sampled_from([
        p for p in (("cpu",), ("gpu",), ("cpu", "gpu"))
        if metrics is None or any(metrics[0] in METRICS[q] for q in p)]))
    trials = draw(st.integers(1, 2))
    files = []
    for platform in platforms:
        header = IDENTITY_HEADER + list(METRICS[platform])
        rows = [[kernel, platform, size, trial] + _values(platform, ki, rnd)
                for ki, kernel in enumerate(kernels)
                for size in SIZES[platform] for trial in range(trials)]
        files.append((draw(st.sampled_from(["csv", "json"])), header, rows))

    if kind == "hostile name":
        old = draw(st.sampled_from(kernels[:-1]))
        for _, _, rows in files:
            for row in rows:
                row[0] = value if row[0] == old else row[0]
        return files, kernels[-1]
    _, header, rows = draw(st.sampled_from(
        [f for f in files if metrics is None or metrics[0] in f[1]]))
    if kind in VALUES:
        column = header.index(draw(st.sampled_from(metrics or header[len(IDENTITY_HEADER):])))
        draw(st.sampled_from(rows))[column] = value
    elif kind == "duplicate sample":
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    else:  # a metric column twice: a repeated CSV header cell, a repeated JSON key
        header.append(draw(st.sampled_from(header[len(IDENTITY_HEADER):])))
        for row in rows:
            row.append(rnd.uniform(0.1, 0.5))
    return files, kernels[-1]


def _render(fmt, header, rows):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(c) for c in row] for row in rows)
        # a lone surrogate makes bytes that are not UTF-8, as a broken file would
        return buf.getvalue().encode("utf-8", "surrogatepass")
    records = ("{" + ", ".join(f"{json.dumps(k)}: {_json_cell(c)}" for k, c in zip(header, row))
               + "}" for row in rows)
    return ("[" + ",\n".join(records) + "]").encode("ascii")


def _json_cell(cell):
    if isinstance(cell, Raw):
        return cell.json
    return json.dumps(cell) if isinstance(cell, str) else repr(cell)


def _main(argv):
    # strict UTF-8 streams, as a real terminal's: printing a lone surrogate fails
    out, err = (io.TextIOWrapper(io.BytesIO(), "utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def _commands(inputs, target, method):
    # one gap reference set is fitted in this process: forking a child for
    # more would double the run time, and the forked path has its own tests
    return [["ingest-check", *inputs],
            ["cluster", *inputs, "--method", method, "-k", "2"],
            ["select-k", *inputs, "--method", method, "--k-max", "3", "--gap-b", "1",
             "--n-init", "2"],
            ["similar", *inputs, "--target", target, "--family", f"{target}*"],
            ["stability", *inputs]]


@pytest.mark.parametrize("kind, value", CASES,
                         ids=[f"{kind}-{i}" for i, (kind, _) in enumerate(CASES)])
@settings(max_examples=2, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), method=st.sampled_from(["agglomerative", "kmeans"]))
def test_every_command_exits_0_or_2_and_an_exit_of_2_writes_nothing(kind, value, data, method):
    files, target = data.draw(sample_files(kind, value))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)  # a write relative to the working directory lands in root too
        try:
            inputs, contents = [], {}
            for i, (fmt, header, rows) in enumerate(files):
                path = root / f"in{i}.{fmt}"
                contents[path] = _render(fmt, header, rows)
                path.write_bytes(contents[path])
                inputs += ["--input", str(path)]
            for argv in _commands(inputs, target, method):
                out = None if argv[0] == "ingest-check" else root / argv[0]
                before = set(root.rglob("*"))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code, stdout, stderr = _main(argv + (["--out", str(out)] if out else []))
                where = f"{argv[0]} on {kind} {value!r}: exit {code}, stderr {stderr!r}"
                assert code in (0, 2), where
                # a repeated CSV header cell or JSON key is an input error
                assert kind != "duplicate field" or code == 2, where
                assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (
                    where, [str(w.message) for w in caught])
                new = set(root.rglob("*")) - before
                assert all(out is not None and (p == out or out in p.parents) for p in new), (
                    where, sorted(map(str, new)))
                if code == 2:
                    assert stdout == "", where
                    assert stderr.endswith("\n") and stderr.count("\n") == 1, where
                    assert set(json.loads(stderr)) == {"error", "message"}, where
                    assert out is None or not out.exists(), where
                else:
                    assert stderr == "", where
            assert all(path.read_bytes() == text for path, text in contents.items())
        finally:
            os.chdir(cwd)
