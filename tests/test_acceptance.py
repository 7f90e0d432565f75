"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 1-4, 6, 7 are blocking. Criterion 5 contains a blocking index
check plus three informational cross-checks that are reported but never
fail the suite.
"""

import io
import json
import sys
from contextlib import redirect_stdout

from orbitcohom import cli
from orbitcohom.engine import GroupChoice, build_e2, classify
from orbitcohom.fiber import make_type_ab
from orbitcohom.oracle import brute_force_classify, compare_reports, min_cap
from orbitcohom.presentation import make_presentation
from orbitcohom.selfcheck import basis_problems

from helpers import cap_stable, reference_branches, same_presentation

# collected verdict lines; echoed by the conftest terminal-summary hook so
# they appear even under default output capturing
VERDICT_LINES = []


def _verdict(number: int, ok: bool, note: str = ""):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _info(label: str, ok: bool, note: str):
    status = "agrees" if ok else "differs"
    line = f"[criterion 5][INFO] {label}: {status} ({note})"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def _expected_z2_ring(n):
    return make_presentation(
        [("x", 1), ("z", n)],
        [((("x", 3 * n + 1),),), ((("z", 2),),),
         ((("x", n + 1), ("z", 1)),)],
        base_generator="x")


def _expected_poincare_z2(n):
    dims = {}
    for j in range(3 * n + 1):
        if n <= j <= 2 * n:
            dims[j] = 2
        else:
            dims[j] = 1
    return dims


def _run_cli_json(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_criterion_1_even_even_z2():
    ok = True
    try:
        for n in range(1, 9):
            report = classify(make_type_ab(n, 0, 0), GroupChoice.Z2)
            assert len(report.outcomes) == 1, f"n={n}: {len(report.outcomes)}"
            out = report.outcomes[0]
            assert same_presentation(out.presentation, _expected_z2_ring(n)), n
            expected = _expected_poincare_z2(n)
            got = dict(enumerate(out.poincare.dense(3 * n)))
            assert got == expected, f"n={n}: {got}"
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(1, ok)


def test_criterion_2_odd_even_z2():
    ok = True
    try:
        for n in range(1, 9):
            report = classify(make_type_ab(n, 1, 0), GroupChoice.Z2)
            assert report.outcomes == (), f"n={n}"
            code, out = _run_cli_json(
                "classify", "--n", str(n), "--a", "odd", "--b", "even",
                "--format", "json", "--show-rejected")
            doc = json.loads(out)
            assert code == 0 and doc["outcomes"] == []
            assert doc["rejected"], f"n={n}: no rejected branches listed"
            assert all(rb["reason"] for rb in doc["rejected"]), n
            assert len(doc["rejected"]) == len(report.rejected), n
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(2, ok)


def test_criterion_3_circle_odd_n():
    ok = True
    try:
        for n in range(1, 8, 2):
            case_i = make_presentation(
                [("x", 2), ("z", n)],
                [((("x", (3 * n + 1) // 2),),), ((("z", 2),),),
                 ((("x", (n + 1) // 2), ("z", 1)),)],
                base_generator="x")
            report = classify(make_type_ab(n, 0, 0), GroupChoice.CIRCLE)
            assert len(report.outcomes) == 1, f"n={n}"
            assert same_presentation(report.outcomes[0].presentation, case_i), n

            report = classify(make_type_ab(n, 0, 1), GroupChoice.CIRCLE)
            assert len(report.outcomes) == 2, f"n={n}"
            if n == 1:
                case_ii = make_presentation([("z", 2)], [((("z", 2),),)])
            else:
                case_ii = make_presentation(
                    [("x", 2), ("z", 2 * n)],
                    [((("x", (n + 1) // 2),),), ((("z", 2),),)],
                    base_generator="x")
            matched = [same_presentation(o.presentation, case_i)
                       or same_presentation(o.presentation, case_ii)
                       for o in report.outcomes]
            assert all(matched), f"n={n}"
            assert not same_presentation(report.outcomes[0].presentation,
                                         report.outcomes[1].presentation), n
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(3, ok)


def test_criterion_4_circle_even_n_excluded():
    ok = True
    try:
        for n in range(2, 9, 2):
            for a in (0, 1):
                for b in (0, 1):
                    report = classify(make_type_ab(n, a, b),
                                      GroupChoice.CIRCLE)
                    assert report.outcomes == (), (n, a, b)
                    assert report.verdict == "no-free-action"
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(4, ok)


def test_criterion_5_index_bounds():
    ok = True
    try:
        for n in range(1, 9):
            report = classify(make_type_ab(n, 0, 0), GroupChoice.Z2)
            indices = [o.index for o in report.outcomes]
            assert indices == [3 * n], f"n={n}: {indices}"
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(5, ok, "blocking part: both-even index = 3n")

    # informational cross-checks: reported, never failing
    code, out = _run_cli_json("table", "--n", "2", "--format", "json")
    rows = {(r["group"], r["a"], r["b"]): r for r in json.loads(out)["rows"]}
    both_odd = rows[("z2", "odd", "odd")]["indices"]
    _info("both-odd candidate indices include 2", 2 in both_odd,
          f"candidates {both_odd}")
    even_odd = rows[("z2", "even", "odd")]["indices"]
    _info("even/odd candidates are at most 3n",
          all(index <= 6 for index in even_odd),
          f"candidates {even_odd}; the paper's bound")
    realized = {2, 4} <= set(even_odd)
    _info("even/odd candidates include the realized indices n and 2n",
          realized, f"candidates {even_odd}; RP^n x S^2n has index n and "
          "S^n x RP^2n index 2n")


def test_criterion_6_oracle_equivalence():
    ok = True
    try:
        for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
            for n in (1, 2, 3):
                for a in (0, 1):
                    for b in (0, 1):
                        fiber = make_type_ab(n, a, b)
                        cap = min_cap(fiber, group)
                        engine_report = classify(fiber, group)
                        oracle_report = brute_force_classify(fiber, group, cap)
                        assert compare_reports(engine_report,
                                               oracle_report) == [], (
                            group, n, a, b)
                        assert cap_stable(fiber, group, cap) == [], (
                            group, n, a, b)
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(6, ok)


def test_criterion_7_invariants():
    ok = True
    try:
        for group in (GroupChoice.Z2, GroupChoice.CIRCLE):
            for n in (1, 2, 3):
                for a in (0, 1):
                    for b in (0, 1):
                        fiber = make_type_ab(n, a, b)
                        report = classify(fiber, group)
                        for out in report.outcomes:
                            # the column reference accepts each pattern of
                            # the history (Leibniz, so d(u*u) = 0, and
                            # d o d = 0) and turns to the outcome's page
                            page = build_e2(fiber, group)
                            for pattern in out.history:
                                ((reason, page),) = [
                                    (reason, child) for p, reason, child
                                    in reference_branches(page)
                                    if p == pattern]
                                assert reason is None, (pattern, reason)
                            assert page == out.e_inf
                            assert page.rows[0].has_column(0)
                            assert basis_problems(out) == []
        args = ("classify", "--n", "2", "--a", "even", "--b", "odd",
                "--format", "json", "--show-rejected")
        _, first = _run_cli_json(*args)
        _, second = _run_cli_json(*args)
        assert first == second and first
    except AssertionError:
        ok = False
        raise
    finally:
        _verdict(7, ok)
