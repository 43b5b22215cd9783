"""The benchmark's hooks into the engine still resolve.

perfbench wraps public engine functions at their module bindings and fails a
traced run when a function on its reach list records no call; its counters
read arguments and results of a few of them. This reads those names from the
benchmark's source, without importing it, and checks each against the
package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repiece import reduce

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _assigned(path: Path, name: str):
    """The literal value assigned to a module-level name in a source file."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def _hook_names() -> list[str]:
    names = []
    for tuple_name in ("_REACHED", "_REACHED_CLI"):
        names += ast.literal_eval(_assigned(PERFBENCH / "workloads.py", tuple_name))
    counters = _assigned(PERFBENCH / "spans.py", "COUNTERS")
    names += [ast.literal_eval(key) for key in counters.keys]
    return names


def test_hook_lists_are_found():
    names = _hook_names()
    assert "reduce.apply_merge" in names and "reduce.bipartite_soft_match" in names


@pytest.mark.parametrize("name", _hook_names())
def test_hook_resolves_to_public_engine_function(name):
    module_name, *attrs = name.split(".")
    module = importlib.import_module(f"repiece.{module_name}")
    owner, fn = module, module
    for attr in attrs:
        assert not attr.startswith("_"), f"{name} is private"
        owner, fn = fn, getattr(fn, attr)
    assert inspect.isfunction(fn), f"{name} is not a function"
    if inspect.ismodule(owner):
        # a span is named after the module that defines the function, so the
        # binding perfbench wraps must be the function's own
        assert fn.__module__ == f"repiece.{module_name}" and fn.__name__ == attrs[-1]
    else:
        assert inspect.isclass(owner) and attrs[-1] in vars(owner)


def test_match_plan_edges_have_a_length():
    # the bipartite_soft_match counter reads len(result.edges)
    keys = np.eye(4, dtype=np.float32)
    plan = reduce.bipartite_soft_match(keys[:3], keys[1:])
    assert len(plan.edges) == 3
    assert len(reduce.bipartite_soft_match(keys[:0], keys).edges) == 0
