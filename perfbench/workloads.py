"""Workload generators: the inputs each workload draws, as plain data.

An input is a dict. Library inputs are ``{"group", "n", "a", "b"}`` and
name one ``make_type_ab(n, a, b)`` fiber under one group; CLI inputs are
``{"argv": [...]}``, the arguments of one ``python -m orbitcohom.cli``
invocation. This module does not import the package: ``run.py`` generates
inputs before any process that runs the program starts.

``inputs(workload, seed)`` is one cycle of the closed loop, in the order it
runs. ``domain(workload)`` is every input the generator can draw; the
reference digests in ``reference.json`` cover all of it.
"""

from __future__ import annotations

import random
from typing import Dict, List

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
GROUPS = ("z2", "s1")

# z2-wide draws one n from each of Z2_WIDE_STRATA equal slices of
# [Z2_WIDE_LO, Z2_WIDE_HI], at the same seeded offset into every slice (a
# systematic sample), and gives slice i the pair PAIRS[i % 4]. Op cost grows
# with n, so the cost mix of a cycle, and with it every timing, barely
# depends on the seed.
Z2_WIDE_LO, Z2_WIDE_HI, Z2_WIDE_STRATA = 48, 320, 48
TABLE_N = range(1, 25)
ORACLE_N = range(1, 6)

WORKLOADS = ("z2-wide", "table-sweep", "oracle-check", "cli-cold")

# The op each workload times; used by the worker to pick its loop body.
OP_KIND = {"z2-wide": "classify", "table-sweep": "classify",
           "oracle-check": "oracle", "cli-cold": "cli"}


def lib_input(group: str, n: int, a: int, b: int) -> Dict:
    return {"group": group, "n": n, "a": a, "b": b}


def input_id(spec: Dict) -> str:
    """Key of an input in the reference digests."""
    if "argv" in spec:
        return " ".join(spec["argv"])
    return f"{spec['group']}/{spec['n']}/{spec['a']}{spec['b']}"


def _z2_wide_strata():
    span = Z2_WIDE_HI - Z2_WIDE_LO + 1
    return [(Z2_WIDE_LO + span * i // Z2_WIDE_STRATA,
             Z2_WIDE_LO + span * (i + 1) // Z2_WIDE_STRATA - 1)
            for i in range(Z2_WIDE_STRATA)]


def _grid(groups, ns) -> List[Dict]:
    return [lib_input(g, n, a, b) for g in groups for n in ns for a, b in PAIRS]


def _cli_inputs() -> List[Dict]:
    """The fixed invocation set of cli-cold: classify, table and oracle-check."""
    out = []
    for g in GROUPS:
        for n in (2, 3):
            for a, b in PAIRS:
                out.append(["classify", "--format", "json", "--group", g,
                            "--n", str(n), "--a", str(a), "--b", str(b)])
    for n in (1, 2, 3, 4):
        out.append(["table", "--format", "json", "--n", str(n)])
    for g in GROUPS:
        for n in (1, 2):
            for a, b in PAIRS:
                out.append(["oracle-check", "--format", "json", "--group", g,
                            "--n", str(n), "--a", str(a), "--b", str(b)])
    return [{"argv": argv} for argv in out]


def domain(workload: str) -> List[Dict]:
    """Every input the generator of this workload can draw."""
    if workload == "z2-wide":
        return _grid(("z2",), range(Z2_WIDE_LO, Z2_WIDE_HI + 1))
    if workload == "table-sweep":
        return _grid(GROUPS, TABLE_N)
    if workload == "oracle-check":
        return _grid(GROUPS, ORACLE_N)
    if workload == "cli-cold":
        return _cli_inputs()
    raise ValueError(f"unknown workload {workload!r}")


def inputs(workload: str, seed: int) -> List[Dict]:
    """One cycle of the workload's closed loop for this seed, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "z2-wide":
        offset = rng.random()
        cycle = [lib_input("z2", lo + int(offset * (hi - lo + 1)),
                           *PAIRS[i % len(PAIRS)])
                 for i, (lo, hi) in enumerate(_z2_wide_strata())]
    else:
        cycle = domain(workload)
    rng.shuffle(cycle)
    return cycle
