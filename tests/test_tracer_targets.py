"""Every name that perfbench/tracer.py wraps or perfbench/corpus.py calls
must still exist.

The tracer replaces library functions and methods by name, and the corpus
builder calls library functions to make the benchmark inputs, so a rename
or deletion in src/pgshell would only show up in a benchmark run.  These
tests read both files with `ast` (without importing them) and resolve each
name against the library.
"""

import ast
import importlib
import inspect
import pathlib

from pgshell import fields

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
CORPUS = PERFBENCH / "corpus.py"


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


def test_corpus_library_names_exist():
    """Each `from pgshell... import` name and each attribute of an imported
    pgshell module (`linalg.determinant`, `poly.Ideal`, ...) in corpus.py."""
    tree = ast.parse(CORPUS.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pgshell":
            package = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(package, alias.name, None)
                if obj is None:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                if inspect.ismodule(obj):
                    modules[alias.asname or alias.name] = obj
    assert {"catalog", "linalg", "parser", "poly"} <= set(modules)
    used = [
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]
    assert ("linalg", "determinant") in used
    for name, attr in used:
        assert hasattr(modules[name], attr), f"{name}.{attr}"
