"""The package's modules import each other without a cycle.

Every module under src/repiece is parsed with `ast`, and each relative import
counts wherever it sits: at module level, inside a function body or under an
`if TYPE_CHECKING:` block.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import repiece

PACKAGE = Path(repiece.__file__).resolve().parent


def _relative_imports(source: str) -> set[str]:
    """Sibling modules a module's source imports, at any depth."""
    deps = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:  # from .x import y
                deps.add(node.module.split(".")[0])
            else:  # from . import x, y
                deps.update(alias.name for alias in node.names)
    return deps


def test_relative_imports_found_at_any_depth():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .config import ModelConfig\n"
        "if TYPE_CHECKING:\n"
        "    from .vit import AttentionRecord\n"
        "def bench():\n"
        "    from . import numerics, embed\n"
    )
    assert _relative_imports(source) == {"config", "vit", "numerics", "embed"}


def test_strategy_names_are_spelled_only_in_config_and_reduce():
    # config defines the strategies and reduce runs them; every other module
    # asks reduce, so no other module may branch on a strategy's name
    names = {"imagepiece", "evit", "tome"}
    found = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    }
    assert found <= {"config.py", "reduce.py"}


def test_strategy_names_are_spelled_in_reduce_only_by_its_plan():
    # the plan says what each strategy does at a layer, its merge count
    # included; the count rule, step and the one step body read the plan, so
    # none of them names a strategy or reads a knob that only the plan weighs
    names = {"imagepiece", "evit", "tome"}
    knobs = {"tome_reduction", "merge_ratio", "evit_fuse", "retokenize_at", "prune_at"}
    tree = ast.parse((PACKAGE / "reduce.py").read_text(encoding="utf-8"))
    plan = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_plan"]
    assert len(plan) == 1
    in_plan = {id(node) for node in ast.walk(plan[0])}
    outside = [node for node in ast.walk(tree) if id(node) not in in_plan]
    spelled = [
        (node.lineno, node.value)
        for node in outside
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in names
    ]
    assert spelled == []
    weighed = [
        (node.lineno, node.attr)
        for node in outside
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
        and node.attr in knobs
    ] + [
        (node.lineno, "merge_budget")
        for node in outside
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "merge_budget"
    ]
    assert weighed == []


def test_bool_is_told_from_int_only_in_config():
    # config spells the int-not-bool rule once and every other module reads
    # checked records, so no other module asks whether a value is a bool
    found = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
    }
    assert found <= {"config.py"}


def test_import_graph_has_no_cycle():
    graph = {
        path.stem: _relative_imports(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }
    assert {"cli", "diag", "reduce", "vit"} <= set(graph)
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
