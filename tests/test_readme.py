import functools
import re
from pathlib import Path

import relayrates

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run_and_key_types_exist():
    text = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks
    for block in blocks:
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
