"""The README's input and library examples run as documented."""

import csv
import gc
import io
import json
import re
import warnings
from pathlib import Path

from kst.cli import build_parser, main
from kst.dataset import IDENTITY_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, f"README.md has no {lang} block"
    return blocks[0]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_csv_example(tmp_path, capsys):
    p = tmp_path / "runs.csv"
    p.write_text(readme_block("csv"))
    assert run(capsys, "ingest-check", "--input", p)[0] == 0
    code, _, err = run(capsys, "cluster", "--input", p, "--size", 1048576, "-k", 2,
                       "--out", tmp_path / "out")
    assert code == 0, err


def test_readme_json_values_form_matches_csv(tmp_path, capsys):
    text = readme_block("csv")
    records = []
    for row in csv.DictReader(io.StringIO(text)):
        record = {k: row[k] for k in IDENTITY_COLUMNS}
        record["problem_size_bytes"] = int(record["problem_size_bytes"])
        record["trial"] = int(record["trial"])
        record["values"] = {k: float(v) for k, v in row.items() if k not in IDENTITY_COLUMNS}
        records.append(record)
    csv_path, json_path = tmp_path / "runs.csv", tmp_path / "runs.json"
    csv_path.write_text(text)
    json_path.write_text(json.dumps(records))
    from_csv = run(capsys, "ingest-check", "--input", csv_path)
    from_json = run(capsys, "ingest-check", "--input", json_path)
    assert from_csv[0] == 0
    assert from_json == from_csv


def test_readme_json_examples_parse(tmp_path, capsys):
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2  # the values-mapping form and the flat form
    outputs = []
    for i, block in enumerate(blocks):
        p = tmp_path / f"example{i}.json"
        p.write_text(block)
        code, out, err = run(capsys, "ingest-check", "--input", p)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_readme_library_example(tmp_path, capsys, monkeypatch):
    (tmp_path / "runs.csv").write_text(readme_block("csv"))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an unclosed file shows as a ResourceWarning
        exec(readme_block("python"), {})
        gc.collect()
    assert [str(w.message) for w in caught] == []
    quality, consensus = capsys.readouterr().out.splitlines()
    assert quality.startswith("{'compactness': [")
    assert int(consensus) >= 1


def _option_strings(parser):
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action.choices, dict):  # the subcommands' parsers
            for sub in action.choices.values():
                yield from _option_strings(sub)


def test_readme_documents_every_flag():
    text = README.read_text()
    flags = sorted(set(_option_strings(build_parser())))
    assert "--gap-b" in flags and "-k" in flags
    # each flag in a code span, not as the prefix of a longer flag
    missing = [f for f in flags if not re.search(rf"`{re.escape(f)}(?![\w-])", text)]
    assert missing == []
