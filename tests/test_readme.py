import functools
import re
import shlex
from pathlib import Path

import relayrates
from relayrates import validate_config
from relayrates.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(text, language):
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.S | re.M)


def test_readme_examples_run_and_key_types_exist():
    text = README.read_text()
    python = blocks(text, "python")
    assert python
    for block in python:
        exec(compile(block, str(README), "exec"), {})

    # a "Key types" bullet opens with the names it documents, then " - "
    section = text.split("\nKey types:\n", 1)[1].split("\n## ", 1)[0]
    bullets = [" ".join(b.split()) for b in re.split(r"^- ", section, flags=re.M)[1:]]
    names = [re.sub(r"\(.*\)", "", name)
             for bullet in bullets for name in re.findall(r"`([^`]+)`", bullet.split(" - ")[0])]
    assert "optimize_splits" in names
    for name in names:
        if "*" not in name:
            functools.reduce(getattr, name.split("."), relayrates)


def test_readme_config_example_validates_and_its_command_lines_run(tmp_path, monkeypatch):
    text = README.read_text()
    (example,) = [block for block in blocks(text, "json") if '"scenario"' in block]
    assert validate_config(example).scenario == "mrc"
    (tmp_path / "experiment.json").write_text(example)
    monkeypatch.chdir(tmp_path)
    commands = blocks(text.split("\n## Command line\n", 1)[1], "sh")[0]
    assert "validate --config experiment.json" in commands
    for line in commands.splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "relayrates"
        assert main(argv[1:]) == 0, line
