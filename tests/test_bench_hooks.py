"""The benchmark's hooks into the engine still resolve, and its counters still read.

perfbench wraps public engine functions at their module bindings and fails a
traced run when a function on its reach list records no call; its counters
read arguments and results of a few of them. This reads those names from the
benchmark's source, without importing it, and checks each against the
package. It then loads the benchmark's tracer by path, which needs only numpy
and the standard library, and runs its counters over one forward per strategy.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from repiece import reduce, vit
from repiece.config import STRATEGIES, ModelConfig, ReductionConfig

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


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_counters_read_a_traced_forward_of_every_strategy(spans):
    weights = vit.init_random(ModelConfig(depth=4, heads=2, dim=16, num_classes=10), seed=3)
    image = np.random.default_rng(4).random((3, 224, 224)).astype(np.float32)
    tracer = spans.Tracer()
    modules = {layer: importlib.import_module(f"repiece.{layer}") for layer in spans.LAYERS}
    installation = spans.install(tracer, modules)
    try:
        runs = {}
        for strategy in STRATEGIES:
            tracer.begin_op(strategy)
            prune = frozenset() if strategy == "none" else frozenset({1, 3})
            _, runs[strategy] = vit.forward_image(
                image, weights, ReductionConfig(strategy=strategy, prune_layers=prune)
            )
    finally:
        installation.uninstall()
    assert not hasattr(vit.mhsa_forward, "__wrapped__")  # the originals are back

    counted = [s for s in tracer.spans if s.name in spans.COUNTERS]
    assert {s.name for s in counted} == set(spans.COUNTERS)
    for s in counted:
        assert s.counts and all(value >= 0 for value in s.counts.values()), s.name
        if "flop" in s.counts:
            assert s.counts["flop"] > 0, s.name
    for strategy, run in runs.items():
        of_op = [s for s in counted if s.op == strategy]
        total = {key: sum(s.counts.get(key, 0) for s in of_op) for key in ("merges", "edges")}
        if strategy in ("imagepiece", "tome"):  # the strategies that merge
            assert total["merges"] > 0 and total["edges"] > 0, strategy
        (tokens_out,) = [s.counts["tokens_out"] for s in of_op if s.name == "vit.encoder_forward"]
        assert tokens_out == run.final_output_tokens > 0
