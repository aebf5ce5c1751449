"""The README's examples run as it says they do."""

import pathlib
import re

import pytest

from mtt.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```text\n(.*?)^```$", README, re.M | re.S)
PROGRAMS = [b for b in BLOCKS if b.startswith("theory")]


def test_the_readme_has_its_examples():
    assert len(PROGRAMS) >= 4
    assert any(b.startswith("$ mtt check demo.mtt") for b in BLOCKS)


@pytest.mark.parametrize("text", PROGRAMS, ids=lambda b: b.split("\n")[0])
def test_each_readme_program_checks(text, tmp_path, capsys):
    path = tmp_path / "example.mtt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 0, capsys.readouterr().err


def test_the_quick_start_transcript_is_what_mtt_prints(tmp_path, monkeypatch, capsys):
    demo = re.search(r"^`demo\.mtt`:\n\n```text\n(.*?)^```$", README, re.M | re.S)
    (tmp_path / "demo.mtt").write_text(demo.group(1), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    (transcript,) = [b for b in BLOCKS if b.startswith("$ mtt check demo.mtt")]
    runs = re.findall(r"^\$ mtt (.*)\n((?:.+\n)*)", transcript, re.M)
    assert [cmd for cmd, _ in runs] == ["check demo.mtt", "normalize demo.mtt use"]
    for cmd, want in runs:
        assert main(cmd.split()) == 0
        assert capsys.readouterr().out == want
