"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Everything is exact arithmetic over QQ: each assertion
is an equality of integers, tables or verdicts, tolerance zero.
"""

import random

import pytest

from pgshell import (
    Ideal,
    betti,
    ci_chain_report,
    complete_intersection,
    hilbert_function,
    invariants,
    koszul_tor,
    minimal_resolution,
    parse_source,
    pgshell_check,
    pgshell_check_oracle,
    regularity_and_depth,
    render_source,
    substitute_ideal,
    tensor_resolution,
    verify_complex,
)
from pgshell.catalog import hyperplane, zero_ideal
from pgshell.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, run_command
from pgshell.shell import NOT_PG_SHELL, PG_SHELL

from conftest import random_invertible, recombine_generators


def report(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


# -- 1. Betti reproduction against the Koszul oracle ------------------------


def test_criterion_1_betti_reproduction(twisted_cubic, ci23, rnc4_entry, veronese_entry):
    cases = {
        "twisted-cubic": (twisted_cubic, {(0, 0): 1, (1, 2): 3, (2, 3): 2}),
        "ci-2-3": (ci23.ideal, {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}),
        "rnc4": (rnc4_entry.ideal, {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}),
        "veronese": (veronese_entry.ideal, {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}),
    }
    for name, (ideal, expected) in cases.items():
        bt = betti(minimal_resolution(ideal))
        assert bt.entries == expected, name
        for q in range(bt.max_q() + 1):
            support = bt.row_support(q)
            for m in support + [max(support) + 1]:
                assert koszul_tor(ideal, q, m).dimension == bt.get(q, m), (name, q, m)
    report(1, "betti-reproduction-with-koszul-oracle")


# -- 2. positive shell suite, both methods, exit code 0 ----------------------


def _both_methods_positive(v, w, label):
    chain = pgshell_check(v, w, oracle_spot=False)
    oracle = pgshell_check_oracle(v, w)
    assert chain.verdict == PG_SHELL, label
    assert oracle.verdict == PG_SHELL, label
    assert chain.table == oracle.table, label


def test_criterion_2_positive_suite(
    R4, tc_quadrics, twisted_cubic, ci23, points5_entry, tensor_pair, tmp_path
):
    for i, q in enumerate(tc_quadrics):
        _both_methods_positive(twisted_cubic, Ideal(R4, [q]), f"tc/quadric{i}")
    ci = ci23.ideal
    f2 = min(ci.generators, key=lambda g: g.homogeneous_degree())
    _both_methods_positive(ci, Ideal(ci.ring, [f2]), "ci/quadric-factor")
    _both_methods_positive(points5_entry.ideal, twisted_cubic, "points/curve")
    y, lin = tensor_pair
    s = Ideal(y.ring, y.generators + lin.generators)
    _both_methods_positive(s, y, "sum/cone-factor")
    _both_methods_positive(s, lin, "sum/linear-factor")

    # CLI exit code 0 on representative positive pairs, both methods
    src = render_source(R4, {
        "V": twisted_cubic,
        "W": Ideal(R4, [tc_quadrics[0]]),
        "P": points5_entry.ideal,
    })
    path = tmp_path / "positive.ideal"
    path.write_text(src)
    assert run_command(["pgshell", str(path), "V", "W", "--method", "both"]) == EXIT_OK
    assert run_command(["pgshell", str(path), "P", "V", "--method", "both"]) == EXIT_OK
    ci_src = render_source(ci.ring, {"C": ci, "F": Ideal(ci.ring, [f2])})
    ci_path = tmp_path / "ci.ideal"
    ci_path.write_text(ci_src)
    assert run_command(["pgshell", str(ci_path), "C", "F", "--method", "both"]) == EXIT_OK
    report(2, "pg-shell-positive-suite-both-methods")


# -- 3. negative suite with verified witness, exit code 1 --------------------


def test_criterion_3_negative_suite(R4, zvars, tc_quadrics, twisted_cubic, tmp_path):
    z = zvars
    w = Ideal(R4, [z[3] * tc_quadrics[0]])
    chain = pgshell_check(twisted_cubic, w, oracle_spot=True)
    oracle = pgshell_check_oracle(twisted_cubic, w)
    for rep in (chain, oracle):
        assert rep.verdict == NOT_PG_SHELL
        assert rep.witness is not None
        assert rep.witness["q"] == 1 and rep.witness["m"] == 3
        assert rep.witness["cycle"]
    src = render_source(R4, {"V": twisted_cubic, "W": w})
    path = tmp_path / "negative.ideal"
    path.write_text(src)
    assert run_command(["pgshell", str(path), "V", "W"]) == EXIT_NEGATIVE
    report(3, "pg-shell-negative-suite-with-witness")


# -- 4. tensor resolution end-to-end -----------------------------------------


def test_criterion_4_tensor_end_to_end(tensor_pair):
    y, lin = tensor_pair
    res, rep = tensor_resolution(y, lin)
    check = verify_complex(res)
    assert check.ok, check.failed()
    conv = betti(minimal_resolution(y)).convolve(betti(minimal_resolution(lin)))
    assert betti(res) == conv
    direct = minimal_resolution(rep["sum_ideal"])
    assert betti(direct) == betti(res)
    report(4, "tensor-resolution-end-to-end")


# -- 5. depth and regularity inequalities on positive pairs ------------------


def test_criterion_5_inequalities(
    R4, zvars, tc_quadrics, twisted_cubic, ci23, points5_entry, tensor_pair,
    veronese_entry, scroll_entry,
):
    z = zvars
    ci = ci23.ideal
    f2 = min(ci.generators, key=lambda g: g.homogeneous_degree())
    f3 = max(ci.generators, key=lambda g: g.homogeneous_degree())
    y, lin = tensor_pair
    s = Ideal(y.ring, y.generators + lin.generators)
    pairs = [
        (twisted_cubic, Ideal(R4, [q])) for q in tc_quadrics
    ] + [
        (twisted_cubic, twisted_cubic),
        (twisted_cubic, Ideal(R4, [])),
        (twisted_cubic, Ideal(R4, [z[3] * tc_quadrics[0]])),
        (twisted_cubic, Ideal(R4, [tc_quadrics[0], tc_quadrics[1]])),
        (ci, Ideal(ci.ring, [f2])),
        (ci, Ideal(ci.ring, [f3])),
        (points5_entry.ideal, twisted_cubic),
        (points5_entry.ideal, Ideal(R4, [tc_quadrics[0]])),
        (s, y),
        (s, lin),
        (veronese_entry.ideal, Ideal(veronese_entry.ring, [veronese_entry.ideal.generators[0]])),
        (scroll_entry.ideal, Ideal(scroll_entry.ring, [scroll_entry.ideal.generators[0]])),
    ]
    positive = 0
    for v, w in pairs:
        if pgshell_check(v, w, oracle_spot=False).verdict != PG_SHELL:
            continue
        positive += 1
        inv_v, inv_w = invariants(v), invariants(w)
        assert inv_v.depth <= inv_w.depth
        if inv_v.depth >= 2:
            assert inv_v.reg_R >= inv_w.reg_R
    assert positive >= 12
    report(5, "depth-and-regularity-inequalities")


# -- 6. invariance under coordinate changes and recombination ----------------


def test_criterion_6_invariance(catalog_items, R4, tc_quadrics, twisted_cubic,
                                ci23, zvars, tensor_pair):
    rng = random.Random(20260810)
    for name, ideal in catalog_items.items():
        base = betti(minimal_resolution(ideal)).entries
        n = ideal.ring.num_vars
        for _ in range(10):
            m = random_invertible(rng, n, ideal.ring.field)
            moved = substitute_ideal(ideal, m)
            assert betti(minimal_resolution(moved)).entries == base, name
        for _ in range(10):
            recombined = recombine_generators(ideal, rng)
            assert betti(minimal_resolution(recombined)).entries == base, name

    z = zvars
    ci = ci23.ideal
    f2 = min(ci.generators, key=lambda g: g.homogeneous_degree())
    pair_cases = [
        ("tc/q1", twisted_cubic, Ideal(R4, [tc_quadrics[0]]), 10),
        ("tc/negative", twisted_cubic, Ideal(R4, [z[3] * tc_quadrics[0]]), 10),
        ("ci/f2", ci, Ideal(ci.ring, [f2]), 10),
    ]
    # explicit permutation + rescaling (special cases of recombination)
    scaled = Ideal(R4, [
        tc_quadrics[2].scale(R4.field.of(-7)),
        tc_quadrics[0].scale(R4.field.of(3, 2)),
        tc_quadrics[1],
    ])
    base_tc = pgshell_check(twisted_cubic, Ideal(R4, [tc_quadrics[0]]), oracle_spot=False)
    permuted = pgshell_check(
        scaled, Ideal(R4, [tc_quadrics[0].scale(R4.field.of(5))]), oracle_spot=False
    )
    assert permuted.verdict == base_tc.verdict and permuted.table == base_tc.table
    assert betti(minimal_resolution(scaled)).entries == betti(
        minimal_resolution(twisted_cubic)
    ).entries

    y, lin = tensor_pair
    s = Ideal(y.ring, y.generators + lin.generators)
    pair_cases.append(("sum/cone", s, y, 2))
    for name, v, w, rounds in pair_cases:
        base = pgshell_check(v, w, oracle_spot=False)
        for _ in range(rounds):
            m = random_invertible(rng, v.ring.num_vars, v.ring.field)
            moved = pgshell_check(
                substitute_ideal(v, m), substitute_ideal(w, m), oracle_spot=False
            )
            assert moved.verdict == base.verdict, name
            assert moved.table == base.table, name
        for _ in range(rounds):
            moved = pgshell_check(
                recombine_generators(v, rng), recombine_generators(w, rng),
                oracle_spot=False,
            )
            assert moved.verdict == base.verdict, name
            assert moved.table == base.table, name
    report(6, "verdict-and-betti-invariance")


# -- 7. Hilbert function equals the Betti alternating sum --------------------


def test_criterion_7_hilbert_consistency(catalog_items):
    for name, ideal in catalog_items.items():
        bt = betti(minimal_resolution(ideal))
        reg = regularity_and_depth(bt, ideal.ring)[0]
        h = hilbert_function(ideal, reg + ideal.ring.num_vars + 5)
        for m in range(reg + 6):
            assert h.values[m] == bt.hilbert_series(ideal.ring).values(m)[m], (name, m)
    report(7, "hilbert-vs-betti-alternating-sum")


# -- 8. complete-intersection detection ---------------------------------------


def test_criterion_8_ci_detection(catalog_items, ci23):
    ci222 = complete_intersection([2, 2, 2], seed=1, num_vars=6)
    expect_ci = {
        "ci23": ci23.ideal,
        "ci222": ci222.ideal,
        "hyperplane": hyperplane(4).ideal,
        "zero": zero_ideal(4).ideal,
    }
    expect_not = {
        name: ideal
        for name, ideal in catalog_items.items()
        if name not in ("ci23",)
    }
    for name, ideal in expect_ci.items():
        assert invariants(ideal).is_complete_intersection, name
    for name, ideal in expect_not.items():
        assert not invariants(ideal).is_complete_intersection, name
    assert ci_chain_report(ci23.ideal)["degrees"] == [2, 3]
    assert ci_chain_report(ci222.ideal)["degrees"] == [2, 2, 2]
    assert ci_chain_report(hyperplane(4).ideal)["degrees"] == [1]
    report(8, "complete-intersection-detection")


# -- 9. parser round-trip and negative parses --------------------------------


def test_criterion_9_parser(tmp_path):
    from pgshell.catalog import build_catalog_entry

    exports = [
        ("rnc", ["2"]), ("rnc", ["3"]), ("rnc", ["4"]), ("veronese", []),
        ("scroll", []), ("tc-cone", []), ("ci", ["2", "3"]),
        ("points-rnc", ["3", "5"]), ("hyperplane", []), ("zero", []),
    ]
    for name, args in exports:
        entry = build_catalog_entry(name, args, seed=1)
        text = render_source(entry.ring, {"I": entry.ideal})
        ps = parse_source(text)
        assert ps.ring == entry.ring and ps.ideals["I"] == entry.ideal, name
        assert render_source(ps.ring, ps.ideals) == text, name

    negatives = [
        "ideal I = z0 +",
        "ring S = QQ[z0];\nideal I = z0 + ;",
        "ring S = QQ[x];\nideal I = x + y;",
    ]
    for i, bad in enumerate(negatives):
        path = tmp_path / f"bad{i}.ideal"
        path.write_text(bad)
        assert run_command(["gb", str(path), "I"]) == EXIT_INPUT
        from pgshell.errors import SourceError

        with pytest.raises(SourceError) as err:
            parse_source(bad)
        assert err.value.line is not None and err.value.column is not None
    report(9, "parser-round-trip-and-errors")
