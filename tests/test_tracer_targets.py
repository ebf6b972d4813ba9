"""Every name that perfbench/tracer.py wraps must still exist.

The tracer replaces library functions and methods by name, so a rename
or deletion in src/pgshell would only show up in a traced benchmark run.
This test reads the tracer's tables with `ast` (without importing it)
and resolves each target against the library.
"""

import ast
import importlib
import pathlib

from pgshell import fields

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} not found in {TRACER.name}")


def resolve(node):
    """The object an expression like `koszul` or `koszul.KoszulContext` names."""
    if isinstance(node, ast.Name):
        return importlib.import_module(f"pgshell.{node.id}")
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return getattr(resolve(node.value), node.attr)


def test_layer_targets_exist():
    rows = tracer_table("LAYERS").elts
    assert rows
    for row in rows:
        module, attr = resolve(row.elts[0]), row.elts[1].value
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_method_targets_exist():
    rows = tracer_table("METHODS").elts
    assert rows
    for row in rows:
        cls, attr = resolve(row.elts[0]), row.elts[1].value
        # the tracer reads the class dict, so an inherited method does not count
        assert attr in vars(cls), f"{cls.__name__}.{attr}"


def test_field_ops_are_field_methods():
    ops = ast.literal_eval(tracer_table("FIELD_OPS"))
    assert set(ops) == {"add", "sub", "mul", "div", "inv"}
    for op in ops:
        assert callable(vars(fields.Field).get(op)), op
