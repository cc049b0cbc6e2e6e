"""The README's library example runs and its INI examples parse, as written."""

import re
from pathlib import Path

from fedsmell.config import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(example, str(README), "exec"), {})


def test_readme_ini_examples_parse(tmp_path):
    examples = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(examples) == 2
    for i, example in enumerate(examples):
        path = tmp_path / f"example{i}.ini"
        path.write_text(example, encoding="utf-8")
        parse_config(path)
