import ast
import pathlib
import re

from pgshell import Ideal, betti, clear_caches, invariants, minimal_resolution, pgshell_report
from pgshell.memo import MEMOS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pgshell"


def compute(V, W):
    report = pgshell_report(V, W, "both")
    return (
        betti(minimal_resolution(V)).entries,
        report.verdict,
        report.table,
        invariants(V).to_json(),
    )


def test_every_memo_fills_clears_and_recomputes(R4, twisted_cubic, tc_quadrics):
    W = Ideal(R4, [tc_quadrics[0]])
    first = compute(twisted_cubic, W)
    names = [m.__qualname__ for m in MEMOS]
    assert all(m.cache_info().currsize > 0 for m in MEMOS), names

    clear_caches()
    assert all(m.cache_info().currsize == 0 for m in MEMOS), names

    assert compute(twisted_cubic, W) == first


def test_no_module_level_cache_dicts():
    # memo.memoized is the one memo layer; no module keeps its own table
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name):
                    assert not re.fullmatch(r"_\w*CACHE", t.id), f"{path.name}: {t.id}"
