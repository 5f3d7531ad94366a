"""Guards on the package's shape."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import ringprune
from ringprune import (
    EpochSchedule,
    LinearRegressionTask,
    MaskAgreementConfig,
    MlpClassificationTask,
    ThresholdPolicy,
    TrainingConfig,
    ring,
    trainer,
)

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


# What perfbench/child.py replaces by name, and on what: "trainer" and "ring"
# are the package's modules, "task" is the run's task object.
HOOK_OWNERS = {
    "trainer": (trainer,),
    "ring": (ring,),
    "task": (MlpClassificationTask, LinearRegressionTask),
}


def benchmark_hooks() -> tuple[set[tuple[str, str]], set[str]]:
    """The (owner, attribute) pairs that perfbench/child.py names, and the
    step functions it hooks on ``trainer``, read from its source: importing
    it would run its imports and path setup."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    pairs, steps = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            owner, attr = node.elts[:2]
            if isinstance(owner, ast.Name) and isinstance(getattr(attr, "value", None), str):
                pairs.add((owner.id, attr.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "step_name" for target in node.targets
        ):
            steps |= {
                leaf.value
                for leaf in ast.walk(node.value)
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
            }
    return pairs, steps


def test_every_name_the_benchmark_hooks_resolves_on_the_package():
    """Each (module, attribute) in ``TRACED_NAMES`` and in the other hooks
    of perfbench/child.py, and each step function it times, exists. The step
    functions take ``step`` and ``epoch``, which its step log binds by name.
    A deleted or renamed hooked name fails here, not only in a benchmark
    run."""
    pairs, steps = benchmark_hooks()
    assert ("trainer", "split_by_mask") in pairs and ("ring", "or_masks") in pairs
    assert steps == {"baseline_dense_step", "compressed_step"}
    missing = [
        f"{owner}.{attr}"
        for owner, attr in sorted(pairs)
        for target in HOOK_OWNERS.get(owner, (None,))
        if target is None or not hasattr(target, attr)
    ]
    assert not missing, f"hooked by perfbench/child.py but not defined: {missing}"
    for name in sorted(steps):
        parameters = inspect.signature(getattr(trainer, name)).parameters
        assert {"step", "epoch"} <= parameters.keys(), name


@pytest.mark.parametrize(
    "mode, step_name",
    [
        (trainer.MODE_DENSE, "baseline_dense_step"),
        (trainer.MODE_COMPRESSED, "compressed_step"),
        (trainer.MODE_DGC_CONTRAST, "compressed_step"),
    ],
)
def test_run_experiment_calls_the_hooked_step_on_every_step(monkeypatch, mode, step_name):
    """perfbench/child.py times a run by replacing the mode's step on
    ``trainer``: ``baseline_dense_step`` in dense mode and
    ``compressed_step`` in both pruned modes. So run_experiment must call
    that global on every step, and no other step function."""
    calls = {"baseline_dense_step": 0, "compressed_step": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(trainer, name, counting(name, getattr(trainer, name)))
    policy = ThresholdPolicy(base=EpochSchedule.constant(0.05), warmup_epochs=1)
    cfg = TrainingConfig(batch_size=4, n_nodes=2, epochs=2)
    result = trainer.run_experiment(
        LinearRegressionTask(n_samples=32), cfg, policy, MaskAgreementConfig(), mode
    )
    n_steps = len(result.metrics) - 1
    assert n_steps == 8
    assert calls == {name: n_steps if name == step_name else 0 for name in calls}
