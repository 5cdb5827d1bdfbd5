"""Package layout: modules do not reach into each other's private helpers,
and every function the benchmark tracer wraps exists."""

import ast
import importlib
from pathlib import Path

import halfgilbert

PACKAGE = Path(halfgilbert.__file__).resolve().parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def private_cross_module_uses():
    """(importer, source module, name) for every underscore name a module of
    the package takes from a sibling, by `from .x import _y` or by
    `from . import x` followed by `x._y`."""
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        uses.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
            ):
                uses.add((path.stem, node.value.id, node.attr))
    return uses


def test_only_the_traced_laplace_route_crosses_a_module_boundary():
    # analytic evaluates every MGF value through specfun's Laplace Hermite
    # route, which the benchmark tracer names by its private name
    assert private_cross_module_uses() == {
        ("analytic", "specfun", "_hermite_laplace")
    }


def caught_names(handler):
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def test_bad_arguments_exit_from_main_alone():
    # cli.main turns a ValueError into exit 2, after NumericsError (a
    # ValueError too, exit 3); no command catches one of its own
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    (main,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main"]
    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and "ValueError" in caught_names(node)
    ]
    assert len(handlers) == 1
    assert any(node is handlers[0] for node in ast.walk(main))


def tracer_targets():
    """(module, name) for every function perfbench/tracer.py's TARGETS names,
    read from its source so that a missing name fails here, not at Tracer()."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return [
        (module.id, name.value)
        for module, names in zip(targets.keys, targets.values)
        for name in names.elts
    ]


def test_every_traced_name_exists():
    targets = tracer_targets()
    assert len(targets) == 18
    missing = [
        (module, name)
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"halfgilbert.{module}"), name, None))
    ]
    assert missing == []
