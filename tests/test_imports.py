"""The package needs nothing at run time beyond the standard library and numpy,
and raises nothing but its own three error classes."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fedsmell"


def nodes(path):
    """Every node of a source file's syntax tree."""
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))


def absolute_imports(path):
    """The module named by each absolute import in a source file."""
    for node in nodes(path):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_stdlib_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imports = [(path.name, module) for path in sorted(PACKAGE.glob("*.py"))
               for module in absolute_imports(path)]
    assert ("nn.py", "numpy") in imports  # the scan reads the package's sources
    assert [(name, module) for name, module in imports
            if module.partition(".")[0] not in allowed] == []


def test_every_raise_reraises_or_raises_a_package_error():
    # Any other exception would reach the CLI as a traceback and exit 1, not
    # as one error line and exit 2, 3 or 4. errors.py holds the classes and
    # the field rule, whose TypeError and ValueError check_field_types converts.
    allowed = {"ConfigError", "DataError", "NumericError"}
    raises = [(path.name, node) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "errors.py" for node in nodes(path) if isinstance(node, ast.Raise)]
    assert len(raises) > 50  # the scan reads the package's sources
    assert [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in raises
            if node.exc is not None and not (isinstance(node.exc, ast.Call)
                                             and isinstance(node.exc.func, ast.Name)
                                             and node.exc.func.id in allowed)] == []


def test_no_yield_inside_a_stage():
    # A generator that yields inside `with error_context(...)` hands the
    # stage's raising float settings to its caller's code until it resumes.
    stages = [(path.name, node) for path in sorted(PACKAGE.glob("*.py")) for node in nodes(path)
              if isinstance(node, ast.With) and any(
                  isinstance(item.context_expr, ast.Call)
                  and isinstance(item.context_expr.func, ast.Name)
                  and item.context_expr.func.id == "error_context" for item in node.items)]
    assert len(stages) > 5  # the scan reads the package's sources
    assert [f"{name}:{inner.lineno}" for name, stage in stages for inner in ast.walk(stage)
            if isinstance(inner, (ast.Yield, ast.YieldFrom))] == []


def test_every_stage_is_named_config_dataset_or_round():
    # The README's exit codes and float faults document these three prefixes
    # of an error's stage; a new stage name would go undocumented.
    calls = [(path.name, node) for path in sorted(PACKAGE.glob("*.py")) for node in nodes(path)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "error_context"]
    assert len(calls) > 5  # the scan reads the package's sources
    assert [f"{name}:{call.lineno}: {ast.unparse(call)}" for name, call in calls
            if not (len(call.args) == 1 and not call.keywords
                    and isinstance(call.args[0], ast.JoinedStr)
                    and isinstance(call.args[0].values[0], ast.Constant)
                    and call.args[0].values[0].value.startswith(("config ", "dataset ", "round ")))
            ] == []


def test_every_line_is_printed_by_the_cli_writer():
    # cli._say keeps a stream that cannot be written from changing the exit
    # code, so it is the one print and cli.py the one user of sys's streams.
    prints, streams = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "print"):
                    prints.append((path.name, getattr(top, "name", None)))
                if ((isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "sys" and node.attr in ("stdout", "stderr"))
                        or (isinstance(node, ast.ImportFrom) and node.module == "sys")):
                    streams.add(path.name)
    assert prints == [("cli.py", "_say")]
    assert streams == {"cli.py"}


def _callee(call):
    """A call's function name and the name it is looked up on (None for a bare name)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name, getattr(getattr(func, "value", None), "id", None)


def _open_mode(call, name, owner):
    """The mode of an open call, `r` when it names none."""
    # Path.open takes the mode first; open, io.open, io.FileIO and os.fdopen second.
    position = 0 if name == "open" and owner not in (None, "io") else 1
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[position:][:1]
    return modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"


def reads_a_file(call):
    """Whether a call opens a file for reading, reads one through pathlib or
    asks whether a file is regular; an open whose mode or flags name no
    write-only intent counts as a read."""
    name, owner = _callee(call)
    if name in ("read_bytes", "read_text", "S_ISREG"):
        return True
    if name not in ("open", "FileIO", "fdopen"):
        return False
    if owner == "os" and name == "open":
        return "O_WRONLY" not in ast.unparse(call.args[1])
    mode = _open_mode(call, name, owner)
    return not set(mode) & set("wax") or "+" in mode


def writes_a_file(call):
    """Whether a call opens a file for writing, writes one through pathlib or
    wraps a file descriptor in a file object."""
    name, owner = _callee(call)
    if name in ("write_bytes", "write_text", "fdopen"):
        return True
    if name not in ("open", "FileIO"):
        return False
    if owner == "os" and name == "open":
        return any(flag in ast.unparse(call.args[1]) for flag in ("O_WRONLY", "O_RDWR", "O_CREAT"))
    return bool(set(_open_mode(call, name, owner)) & set("wax+"))


def call_sites(matches):
    """(file, top-level definition, source) of each package call that `matches`."""
    return {(path.name, getattr(top, "name", None), ast.unparse(node))
            for path in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
            for node in ast.walk(top) if isinstance(node, ast.Call) and matches(node)}


# The out_dir lock opens a directory read-only and never reads it.
OTHER_OPENS_ALLOWED = {("experiments.py", "run_experiment", "os.open(out_dir, os.O_RDONLY)")}


def test_every_input_file_is_read_by_the_one_reader():
    # errors.read_input alone decides what a readable input is: a regular
    # file, opened once, whose every failure is one `cannot read:` line.
    sites = call_sites(reads_a_file)
    assert ("errors.py", "read_input", "stat.S_ISREG(os.fstat(fd).st_mode)") in sites  # the scan
    assert {site for site in sites if site[:2] != ("errors.py", "read_input")} == (
        OTHER_OPENS_ALLOWED)


# cli._say points a stream it cannot write to at devnull; it creates no file.
OTHER_WRITES_ALLOWED = {("cli.py", "_say", "os.open(os.devnull, os.O_WRONLY)")}


def test_every_output_file_is_written_by_the_one_writer():
    # errors.write_output alone makes an output file: whole or absent, through
    # a temp file it creates exclusively, so no entry there is followed.
    sites = call_sites(writes_a_file)
    assert ("errors.py", "write_output",
            "open(temp, 'x', newline='', encoding='utf-8')") in sites  # the scan
    assert {site for site in sites if site[:2] != ("errors.py", "write_output")} == (
        OTHER_WRITES_ALLOWED)


def changes_the_file_system(call):
    """Whether a call makes, removes, renames or locks a file system entry; `replace`
    only on os, so that str.replace is not taken for Path.replace."""
    name, owner = _callee(call)
    return (name in ("mkdir", "unlink", "rmdir", "rename", "touch", "symlink_to")
            or (owner, name) in (("os", "replace"), ("os", "remove"), ("os", "makedirs"),
                                 ("fcntl", "flock")))


# Where test_experiments' crash-point sweep fails each file operation of a run.
SWEPT = {("experiments.py", "run_experiment"), ("errors.py", "write_output")}


def test_every_file_system_change_is_one_the_sweep_fails():
    # The sweep fails every file operation that run_experiment and write_output
    # make under out_dir, in turn; a change made anywhere else would go untried.
    sites = call_sites(changes_the_file_system)
    assert ("errors.py", "write_output", "os.replace(temp, path)") in sites  # the scan
    assert {site for site in sites if site[:2] not in SWEPT} == set()


def definitions(path):
    """Each top-level function and class of a source file, and each method
    that is not a dunder."""
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


# Defined but not yet used by the package, each with its reason.
UNUSED_ALLOWED = {
    ("nn.py", "load_weights"),  # reads model.fwv back: the planned --resume will call it
}


def test_every_definition_is_used_by_the_package():
    # Code that only tests call is a debt. A definition counts as used when
    # its name is read anywhere in the package outside __init__.py, whose
    # imports only export names.
    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    used = {node.id if isinstance(node, ast.Name) else node.attr for path in sources
            for node in nodes(path) if isinstance(node, (ast.Name, ast.Attribute))}
    defined = [(path.name, name) for path in sources for name in definitions(path)]
    assert ("data.py", "load_csv") in defined  # the scan reads the package's sources
    assert {entry for entry in defined if entry[1] not in used} == UNUSED_ALLOWED


# Dataclass fields that nothing in the package reads yet, each with its reason.
UNREAD_FIELDS_ALLOWED = {
    # The planned weights_sha256 column of rounds.csv will write it, and
    # test_federated_hooks counts its call once per round.
    ("RoundLog", "weights_checksum"),
    # Only its own checks read it; the harness builds the topology positionally.
    ("FederationTopology", "combiners"),
    # Both reach summary.json through asdict.
    ("MetricReport", "kappa_band"),
    ("MetricReport", "roc_band"),
}


def test_every_dataclass_field_is_read_by_the_package():
    # A field that nothing reads is a debt. A field counts as read when it is
    # loaded as an attribute anywhere in the package outside its own class
    # body, whose checks and methods may read every field.
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))]
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)
               and any(getattr(getattr(deco, "func", deco), "id", None) == "dataclass"
                       for deco in node.decorator_list)]
    reads = [node for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = set()
    for cls in classes:
        own = {id(node) for node in ast.walk(cls)}
        read = {node.attr for node in reads if id(node) not in own}
        unread |= {(cls.name, item.target.id) for item in cls.body
                   if isinstance(item, ast.AnnAssign) and item.target.id not in read}
    assert {cls.name for cls in classes} >= {"Dataset", "RoundLog"}  # the scan reads the sources
    assert unread == UNREAD_FIELDS_ALLOWED
