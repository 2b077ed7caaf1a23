"""The README's input, command-line and library examples run as documented."""

import csv
import gc
import io
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

from kst.cli import build_parser

from conftest import json_records
from golden_corpus import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = next(a.choices for a in build_parser()._actions if isinstance(a.choices, dict))
# every README line that starts with "kst "
COMMANDS = [line for line in README.read_text().splitlines() if line.startswith("kst ")]
# the files each command writes under --out, as README names them after the
# command; stability also writes one report per kernel
WRITES = {
    "ingest-check": [],
    "cluster": ["partition.json", "dendrogram.json", "quality.json", "projection.json",
                "boxplot.json", "transform.json"],
    "select-k": ["selection.json"],
    "similar": ["family.json"],
    "stability": ["stability/summary.json", "stability/summary.csv"],
}


def readme_block(lang: str) -> str:
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, f"README.md has no {lang} block"
    return blocks[0]


def test_readme_runs_every_subcommand():
    assert sorted(line.split()[1] for line in COMMANDS) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("line", COMMANDS, ids=[line.split()[1] for line in COMMANDS])
def test_readme_command(tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    text = readme_block("csv")
    Path("runs.csv").write_text(text)
    argv = shlex.split(line)[1:]
    if "--out" in SUBCOMMANDS[argv[0]]._option_string_actions:
        argv += ["--out", "out"]
    code, _, stderr = run_cli(argv)
    assert (code, stderr) == (0, "")

    # the text after the command's block, up to the next code block or heading
    after = README.read_text().split(f"{line}\n```\n", 1)[1]
    after = re.split(r"^```|^#", after, maxsplit=1, flags=re.M)[0]
    assert [f for f in WRITES[argv[0]] if f"`{Path(f).name}`" not in after] == []
    expected = set(WRITES[argv[0]])
    if argv[0] == "stability":
        expected |= {f"stability/{row['kernel']}.json" for row in csv.DictReader(io.StringIO(text))}
    written = [p.relative_to("out").as_posix() for p in Path("out").rglob("*") if p.is_file()]
    assert sorted(written) == sorted(expected)


def test_readme_json_values_form_matches_csv(tmp_path):
    text = readme_block("csv")
    csv_path, json_path = tmp_path / "runs.csv", tmp_path / "runs.json"
    csv_path.write_text(text)
    json_path.write_text(json.dumps(json_records(text)))
    from_csv = run_cli(["ingest-check", "--input", str(csv_path)])
    from_json = run_cli(["ingest-check", "--input", str(json_path)])
    assert from_csv[0] == 0
    assert from_json == from_csv


def test_readme_json_examples_parse(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2  # the values-mapping form and the flat form
    outputs = []
    for i, block in enumerate(blocks):
        p = tmp_path / f"example{i}.json"
        p.write_text(block)
        code, out, err = run_cli(["ingest-check", "--input", str(p)])
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


def test_readme_documents_every_flag():
    text = README.read_text()
    flags = sorted({f for p in (build_parser(), *SUBCOMMANDS.values())
                    for f in p._option_string_actions})
    assert "--gap-b" in flags and "-k" in flags
    # each flag in a code span, not as the prefix of a longer flag
    missing = [f for f in flags if not re.search(rf"`{re.escape(f)}(?![\w-])", text)]
    assert missing == []
