"""Guards on the package's shape."""

import re
from pathlib import Path

import ringprune

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_read_by_the_program():
    """Each name in ``ringprune.__all__`` is read by the program: it appears
    in a module of the package other than ``__init__.py``, or in the
    benchmark, on a line that does not define it. A name only the tests read
    belongs in the tests."""
    sources = sorted((ROOT / "src" / "ringprune").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py")
    )
    lines = [
        line
        for path in sources
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    unread = []
    for name in ringprune.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(
            rf"^\s*(?:(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])"
        )
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unread.append(name)
    assert not unread, f"exported but not read by the program: {unread}"
