"""The README's library example runs, its INI examples parse, the error
classes it names exist with the exit codes and labels it gives them, as does
the interrupted run's line, each class it says checks its field types
raises the error class it gives that class, each error line it quotes is
the line of a case that a test checks, and each library error it quotes is a
row of the library's table."""

import builtins
import re
from pathlib import Path

import pytest

import fedsmell
from fedsmell import cli
from fedsmell.config import parse_config
from fedsmell.errors import ConfigError, DataError, NumericError, field_types
from test_cli_errors import CLI_ERRORS
from test_library_errors import LIBRARY_ERRORS
from util import CHECKED_CLASSES

README = Path(__file__).resolve().parent.parent / "README.md"
# The quoted error lines that no CLI_ERRORS row gives, each with the test that checks it.
CHECKED_ELSEWHERE = {
    "CONFIG_ERROR: config <path>: cannot read: <path> is not a regular file":
        "test_cli_input_that_is_not_a_regular_file_is_one_error_line",
    "DATA_ERROR: dataset <path>: cannot read: <path> is not a regular file":
        "test_cli_input_that_is_not_a_regular_file_is_one_error_line",
    "CONFIG_ERROR: output directory <out> is in use by another run":
        "test_cli_file_operation_fault_leaves_the_earlier_run_or_whole_files",
    "CONFIG_ERROR: cannot write outputs to <out>: ...":
        "test_cli_file_operation_fault_leaves_the_earlier_run_or_whole_files",
    "CONFIG_ERROR: cannot write to stdout: <reason>":
        "test_cli_unwritable_stdout_ends_a_finished_run_with_one_config_error_line",
}


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


def test_readme_names_only_builtin_or_exported_errors():
    names = set(re.findall(r"`(\w*Error)`", README.read_text(encoding="utf-8")))
    assert {"ConfigError", "DataError", "NumericError"} <= names
    assert [n for n in names if not hasattr(builtins, n) and not hasattr(fedsmell, n)] == []


def test_readme_states_each_error_class_exit_code_and_label():
    text = " ".join(README.read_text(encoding="utf-8").split())
    for cls in (ConfigError, DataError, NumericError):
        assert f"`{cls.__name__}` is {cls.exit_code}" in text
        assert f"`{cls.label}:`" in text


def test_readme_states_the_interrupted_exit_code_and_label(monkeypatch, capsys):
    def interrupted(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "parse_config", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "run_experiment", interrupted)
    code = cli.main(["centralized", "--config", "any.ini"])
    label = capsys.readouterr().err.split(" ")[0]
    text = " ".join(README.read_text(encoding="utf-8").split())
    assert f"`{code}` interrupted (`{label}`)" in text


def test_readme_names_each_checked_class_and_the_error_it_raises():
    [paragraph] = [p for p in README.read_text(encoding="utf-8").split("\n\n")
                   if p.startswith("Library callers get the same checks.")]
    sentences = [set(re.findall(r"`(\w+)`", s)) for s in " ".join(paragraph.split()).split(". ")]
    for cls, error, base in CHECKED_CLASSES:
        # A sentence names the class and, of the error classes, only its own.
        assert any(cls.__name__ in names and {n for n in names if n.endswith("Error")}
                   == {error.__name__} for names in sentences), cls.__name__
        name, (_, is_list) = next((name, types) for name, types in field_types(cls).items()
                                  if types[0] is int)
        with pytest.raises(error, match=f"^bad value for {name}: "):
            cls(**{**base, name: (True,) if is_list else True})


def test_readme_error_lines_are_lines_of_the_table():
    # Each placeholder (<path>) and each "..." stands for any text.
    quoted = re.findall(r"`((?:CONFIG|DATA|NUMERIC)_ERROR: [^`]+)`",
                        " ".join(README.read_text(encoding="utf-8").split()))
    experiments = (README.parent / "tests" / "test_experiments.py").read_text(encoding="utf-8")
    assert quoted and all(f"def {test}(" in experiments for test in CHECKED_ELSEWHERE.values())
    for line in quoted:
        pattern = ".*".join(map(re.escape, re.split(r"<\w+>|\.\.\.", line)))
        assert line in CHECKED_ELSEWHERE or any(
            re.fullmatch(pattern, row.line) for row in CLI_ERRORS.values()), line


def test_readme_library_errors_are_rows_of_the_table():
    quoted = re.findall(r'`(\w+Error)\("([^`]*)"\)`', README.read_text(encoding="utf-8"))
    rows = {(row.error.__name__, row.message) for row in LIBRARY_ERRORS.values()}
    assert quoted and set(quoted) <= rows, quoted
