"""Guards on the package's shape."""

import ast
import inspect
import re
from pathlib import Path

import ringprune

ROOT = Path(__file__).resolve().parent.parent


PACKAGE = ROOT / "src" / "ringprune"


def program_sources():
    """The package's modules and the benchmark's."""
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def program_lines():
    """The lines of the package's modules other than ``__init__.py``, and of
    the benchmark."""
    return [
        line
        for path in program_sources()
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]


def test_every_export_is_read_by_the_program():
    """Each name in ``ringprune.__all__`` is read by the program: it appears
    in a module of the package other than ``__init__.py``, or in the
    benchmark, on a line that does not define it. A name only the tests read
    belongs in the tests."""
    lines = program_lines()
    unread = []
    for name in ringprune.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(
            rf"^\s*(?:(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])"
        )
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.append(name)
    assert not unread, f"exported but not read by the program: {unread}"


def test_every_member_of_an_exported_class_is_read_by_the_program():
    """Each method and property that the package defines on an exported class
    appears as ``.name`` in a module of the package other than
    ``__init__.py``, or in the benchmark. Dunder methods are called by
    Python itself, and dataclass fields are data (``write_metrics_csv``
    reads ``StepMetrics``'s through ``getattr``), so neither is checked."""
    text = "\n".join(program_lines())
    unread = []
    for export in ringprune.__all__:
        cls = getattr(ringprune, export)
        if not inspect.isclass(cls):
            continue
        for name, member in vars(cls).items():
            if name.startswith("__"):
                continue
            if isinstance(member, property):
                member = member.fget
            code = getattr(getattr(member, "__func__", member), "__code__", None)
            if code is None or Path(code.co_filename).resolve().parent != PACKAGE:
                continue
            if not re.search(rf"\.{re.escape(name)}\b", text):
                unread.append(f"{export}.{name}")
    assert not unread, f"members not read by the program: {unread}"


def defined_names(statement) -> list[str]:
    """The names a module-level statement defines: a function's, a class's,
    or an assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def read_names(statement) -> set[str]:
    """The names a statement reads: loaded names, attributes and imports.
    Docstrings and comments are not code, so they read nothing."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_module_level_name_is_read_by_the_program():
    """Each top-level function, class and constant of a package module other
    than ``__init__.py`` is read by a module of the package or of the
    benchmark, outside its own definition: as a name, an attribute or an
    import. A helper that only the tests, or only itself, reads is dead."""
    statements = [
        (path, statement, read_names(statement))
        for path in program_sources()
        for statement in ast.parse(path.read_text()).body
    ]
    unread = []
    for path, statement, _ in statements:
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        for name in defined_names(statement):
            if name.startswith("__"):
                continue
            if not any(name in reads for _, other, reads in statements if other is not statement):
                unread.append(f"{path.stem}.{name}")
    assert not unread, f"module-level names not read by the program: {unread}"
