"""Command-line interface for the orbit-space cohomology classifier.

Subcommands:
  classify      enumerate orbit-space ring candidates for one input
  table         summary over all four parity pairs and both groups
  index         Conner-Floyd mod-2 index bounds (Z/2 only)
  oracle-check  compare the engine against the brute-force oracle

Exit codes: 0 success, 1 usage or input error, 2 failed self-check.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import List, Optional

from . import __version__, engine, presentation
from .errors import OrbitCohomError
from .fiber import load_fiber, make_type_ab, normalize_parity


def _history_text(history) -> str:
    """A branch's differentials per round, as in ``d3: [2], d5: zero``."""
    return ", ".join(f"d{p.round}: {list(p.sources) if p.sources else 'zero'}"
                     for p in history) or "none"


def _history_doc(history) -> List[dict]:
    return [{"round": p.round, "nonzero_sources": list(p.sources)}
            for p in history]


def _outcome_doc(out: engine.Outcome, top: int) -> dict:
    return {
        "ring": presentation.presentation_str(out.presentation),
        "generators": [[name, deg] for name, deg in out.presentation.generators],
        "relations": [presentation.relation_str(r)
                      for r in out.presentation.relations],
        "poincare": out.poincare.dense(top),
        "index": out.index,
        "extension_flags": [
            {"product": f.product, "candidates": list(f.candidates)}
            for f in out.extension_flags],
        "history": _history_doc(out.history),
    }


def _report_doc(report: engine.ClassificationReport, inputs: dict,
                show_rejected: bool) -> dict:
    doc = {
        "inputs": inputs,
        "warnings": list(report.fiber.warnings),
        "verdict": report.verdict,
        "outcomes": [_outcome_doc(o, report.fiber.top_degree)
                     for o in report.outcomes],
    }
    if show_rejected:
        doc["rejected"] = [
            {"round": rb.round, "reason": rb.reason,
             "history": _history_doc(rb.history)}
            for rb in report.rejected]
    return doc


def _emit_json(doc: dict) -> None:
    # In blocks: json.dumps with indent would hold about a million small
    # strings (71 MB at n = 100000), and json.dump writes every chunk, a
    # system call apiece when stdout is unbuffered (PYTHONUNBUFFERED).
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
    while block := list(itertools.islice(chunks, 4096)):
        sys.stdout.write("".join(block))
    sys.stdout.write("\n")


def _emit_report_text(report: engine.ClassificationReport,
                      show_rejected: bool) -> None:
    for w in report.fiber.warnings:
        print(f"warning: {w}")
    print(f"verdict: {report.verdict}")
    print(f"outcomes: {len(report.outcomes)}")
    for i, out in enumerate(report.outcomes, 1):
        print(f"[{i}] {presentation.presentation_str(out.presentation)}")
        print(f"    poincare: {out.poincare.dense(report.fiber.top_degree)}")
        if out.index is not None:
            print(f"    index: {out.index} (no equivariant sphere map above "
                  f"dimension {out.index})")
        for f in out.extension_flags:
            print(f"    extension open: {f.product} could equal "
                  + " or ".join(f.candidates))
        print(f"    differentials: {_history_text(out.history)}")
    if show_rejected:
        print(f"rejected branches: {len(report.rejected)}")
        for rb in report.rejected:
            print(f"  - differentials: {_history_text(rb.history)}")
            print(f"    reason: {rb.reason}")


def _load_inputs(args) -> tuple:
    """(fiber ring, input description) from either --fiber or n/a/b flags."""
    if args.fiber:
        # --a and --b default to None, read as even below, so that an
        # explicit flag is told apart from none
        if (args.n, args.a, args.b) != (None, None, None):
            raise OrbitCohomError(
                "--fiber cannot be combined with --n, --a or --b")
        ring = load_fiber(args.fiber)
        return ring, {"fiber_file": args.fiber, "group": args.group}
    if args.n is None:
        raise OrbitCohomError("either --fiber or --n is required")
    a = normalize_parity(0 if args.a is None else args.a)
    b = normalize_parity(0 if args.b is None else args.b)
    ring = make_type_ab(args.n, a, b)
    return ring, {"group": args.group, "n": args.n,
                  "a": "odd" if a else "even", "b": "odd" if b else "even"}


def _cmd_classify(args) -> int:
    ring, inputs = _load_inputs(args)
    group = engine.GroupChoice(args.group)
    report = engine.classify(ring, group)
    if args.self_check:
        from . import selfcheck
        problems = selfcheck.self_check(report)
        if problems:
            for p in problems:
                print(f"self-check failed: {p}", file=sys.stderr)
            return 2
    if args.format == "json":
        _emit_json(_report_doc(report, inputs, args.show_rejected))
    else:
        _emit_report_text(report, args.show_rejected)
    return 0


def _cmd_table(args) -> int:
    rows = []
    for group_name in ("z2", "s1"):
        group = engine.GroupChoice(group_name)
        for a in (0, 1):
            for b in (0, 1):
                ring = make_type_ab(args.n, a, b)
                report = engine.classify(ring, group)
                rows.append({
                    "group": group_name,
                    "a": "odd" if a else "even",
                    "b": "odd" if b else "even",
                    "verdict": report.verdict,
                    "rings": [presentation.presentation_str(o.presentation)
                              for o in report.outcomes],
                    "indices": sorted({o.index for o in report.outcomes
                                       if o.index is not None}),
                })
    if args.format == "json":
        _emit_json({"n": args.n, "rows": rows})
    else:
        print(f"n = {args.n}")
        for row in rows:
            rings = "; ".join(row["rings"]) if row["rings"] else "-"
            idx = ",".join(map(str, row["indices"])) if row["indices"] else "-"
            print(f"{row['group']:3} a={row['a']:4} b={row['b']:4} "
                  f"{row['verdict']:20} indices: {idx:8} {rings}")
    return 0


def _cmd_index(args) -> int:
    if args.group != "z2":
        raise OrbitCohomError(
            "the mod-2 cohomology index is defined for --group z2 only")
    ring, inputs = _load_inputs(args)
    report = engine.classify(ring, engine.GroupChoice.Z2)
    per_outcome = tuple(o.index for o in report.outcomes)
    if args.format == "json":
        _emit_json({
            "inputs": inputs,
            "verdict": report.verdict,
            "indices": list(per_outcome),
            "max_index": max(per_outcome, default=None),
        })
    else:
        print(f"verdict: {report.verdict}")
        if per_outcome:
            print(f"candidate indices: {sorted(set(per_outcome))}")
            bound = max(per_outcome)
            print(f"no equivariant map from the antipodal m-sphere exists for "
                  f"m > {bound} in any candidate")
        else:
            print("no admissible outcome; no index to report")
    return 0


def _cmd_oracle_check(args) -> int:
    from . import oracle
    ring, inputs = _load_inputs(args)
    group = engine.GroupChoice(args.group)
    report = engine.classify(ring, group)
    orep, problems = oracle.check(report)
    cap = orep.complex.cap
    doc = {
        "inputs": inputs,
        "cap": cap,
        "reliable_degree": orep.complex.reliable_degree,
        "engine_outcomes": len(report.outcomes),
        "oracle_outcomes": len(orep.outcomes),
        "problems": problems,
        "agreement": not problems,
    }
    if args.format == "json":
        _emit_json(doc)
    else:
        print(f"cap: {cap} (reliable through degree {doc['reliable_degree']})")
        print(f"engine outcomes: {doc['engine_outcomes']}, "
              f"oracle outcomes: {doc['oracle_outcomes']}")
        for p in problems:
            print(f"mismatch: {p}")
        print("agreement: yes" if not problems else "agreement: NO")
    return 2 if problems else 0


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, unlinked from its sections once it has formatted
    them: they refer to it and to each other, so a usage error, --version or
    --help would otherwise leave a cycle to collect."""

    def format_help(self) -> str:
        text = super().format_help()
        self._root_section.items.clear()
        self._root_section = self._current_section = None
        return text


def _add_common(sub):
    sub.add_argument("--group", choices=("z2", "s1"), default="z2",
                     help="transformation group: z2 (order two) or s1 (circle)")
    sub.add_argument("--n", type=int, default=None,
                     help="degree of the first positive class")
    sub.add_argument("--a", default=None,
                     help="parity of a (even/odd or an integer)")
    sub.add_argument("--b", default=None,
                     help="parity of b (even/odd or an integer)")
    sub.add_argument("--fiber", default=None,
                     help="JSON file describing an arbitrary fiber ring")
    sub.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: its actions and subparsers
    refer to each other, so each build would leave a cycle to collect."""
    parser = argparse.ArgumentParser(
        prog="orbitcohom", formatter_class=_Formatter,
        description="orbit-space cohomology classification "
                    "for free Z/2 and circle actions")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classify", help="enumerate orbit-space rings",
                        formatter_class=_Formatter)
    _add_common(p)
    p.add_argument("--show-rejected", action="store_true",
                   help="also list every rejected differential branch")
    p.add_argument("--self-check", action="store_true",
                   help="cross-check each outcome against its monomial basis "
                        "and the brute-force oracle (exit 2 on disagreement)")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("table", help="summary over all parity pairs",
                        formatter_class=_Formatter)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_table)

    p = subs.add_parser("index", help="Conner-Floyd mod-2 index (z2 only)",
                        formatter_class=_Formatter)
    _add_common(p)
    p.set_defaults(func=_cmd_index)

    p = subs.add_parser("oracle-check",
                        help="compare engine and brute-force oracle",
                        formatter_class=_Formatter)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Python 3.10's argparse keeps a usage error in a local of a frame
        # it exits through, which makes a cycle; the frames are done with.
        tb = exc.__traceback__.tb_next
        while tb:
            tb.tb_frame.clear()
            tb = tb.tb_next
        # argparse exits 2 on a usage error; usage errors exit 1 here
        code = int(exc.code or 0)
        return 1 if code == 2 else code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OrbitCohomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`). Point stdout at devnull
        # so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
