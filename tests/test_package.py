"""Guards on the package's shape."""

import inspect
import re
from pathlib import Path

import ringprune

ROOT = Path(__file__).resolve().parent.parent


PACKAGE = ROOT / "src" / "ringprune"


def program_lines():
    """The lines of the package's modules other than ``__init__.py``, and of
    the benchmark."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return [
        line
        for path in sources
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
