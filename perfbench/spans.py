"""Spans around the package's public names, recorded from outside the package.

``Tracer.install()`` replaces each name in ``TARGETS`` with a wrapper that
records one span (name, start, end, parent) per call, plus the counters its
hook derives from the arguments or the result. ``Tracer.restore()`` puts
every original back. Spans stay in memory, in flat arrays, until
``aggregate()`` folds them into per-name calls, total and self time. A
target that no longer exists is listed in ``Tracer.absent`` and skipped.

``IntervalModule.dimension_at`` is deliberately not a target: it runs
millions of times per run, and ``intervals.column_mask.bits`` already counts
the work it does inside ``column_mask``.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Hook = Callable[[Dict[str, float], tuple, dict, object], None]


def _count(key: str, when: Callable[[object], bool]) -> Hook:
    def hook(counters, args, kwargs, result):
        if when(result):
            counters[key] = counters.get(key, 0) + 1
    return hook


def _column_mask_bits(counters, args, kwargs, result):
    nbits = kwargs["nbits"] if "nbits" in kwargs else args[1]
    counters["intervals.column_mask.bits"] = (
        counters.get("intervals.column_mask.bits", 0) + nbits)


def _branches(counters, args, kwargs, report):
    counters["engine.branches.outcomes"] = (
        counters.get("engine.branches.outcomes", 0) + len(report.outcomes))
    counters["engine.branches.rejected"] = (
        counters.get("engine.branches.rejected", 0) + len(report.rejected))


def _oracle_counts(counters, args, kwargs, report):
    counters["oracle.rejected_assignments"] = (
        counters.get("oracle.rejected_assignments", 0)
        + report.rejected_assignments)
    counters["oracle.outcomes"] = (
        counters.get("oracle.outcomes", 0) + len(report.outcomes))


# (module, qualified name in it, span name, hook or None). The span name's
# first component is the layer.
TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("orbitcohom.intervals", "IntervalModule.column_mask",
     "intervals.column_mask", _column_mask_bits),
    ("orbitcohom.intervals", "from_columns", "intervals.from_columns", None),
    ("orbitcohom.engine", "classify", "engine.classify", _branches),
    ("orbitcohom.engine", "build_e2", "engine.build_e2", None),
    ("orbitcohom.engine", "differential_slots", "engine.differential_slots",
     None),
    ("orbitcohom.engine", "check_pattern", "engine.check_pattern",
     _count("engine.check_pattern.accepted", lambda r: r is None)),
    ("orbitcohom.engine", "turn_page", "engine.turn_page", None),
    ("orbitcohom.engine", "is_free_admissible", "engine.is_free_admissible",
     _count("engine.is_free_admissible.passed", lambda r: bool(r))),
    ("orbitcohom.fiber", "validate", "fiber.validate", None),
    ("orbitcohom.presentation", "extract_presentation",
     "presentation.extract_presentation", None),
    ("orbitcohom.presentation", "tot_poincare", "presentation.tot_poincare",
     None),
    ("orbitcohom.presentation", "monomial_basis_elements",
     "presentation.monomial_basis_elements", None),
    ("orbitcohom.obstruction", "cohomology_index",
     "obstruction.cohomology_index", None),
    ("orbitcohom.oracle", "brute_force_classify",
     "oracle.brute_force_classify", _oracle_counts),
    ("orbitcohom.oracle", "compare_reports", "oracle.compare_reports", None),
    ("orbitcohom.gf2", "homology_dim", "gf2.homology_dim", None),
    ("orbitcohom.gf2", "F2Matrix.from_lists", "gf2.F2Matrix.from_lists", None),
    ("orbitcohom.cli", "main", "cli.main", None),
)

LAYERS = ("fiber", "intervals", "engine", "presentation", "obstruction",
          "oracle", "gf2", "cli")


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook: Optional[Hook] = None):
        """fn with a span named name around every call."""
        nid = self._id(name)
        stack, counters = self._stack, self.counters
        name_ids, parents, starts, ends = (self.name_id, self.parent,
                                           self.start, self.end)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> "Tracer":
        for module_name, qualname, span, hook in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(span)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(
                    self.wrap(span, raw.__func__, hook)))
            elif isinstance(owner, type):
                self._patch(owner, attr, self.wrap(span, raw, hook))
            else:
                # Rebind every module-level alias (e.g. engine's
                # ``validate_fiber`` or the package's re-exports) as well.
                wrapped = self.wrap(span, raw, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "orbitcohom"
                                           or mod_name.startswith("orbitcohom.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def aggregate(self) -> Dict[str, List[float]]:
        return aggregate([self.names[i] for i in self.name_id], self.parent,
                         self.start, self.end)

    def summary(self) -> dict:
        """Aggregate, counters and absent targets as JSON-ready data."""
        return {"aggregate": self.aggregate(), "counters": self.counters,
                "absent": self.absent}


def aggregate(names: Sequence[str], parents: Sequence[int],
              starts: Sequence[float],
              ends: Sequence[float]) -> Dict[str, List[float]]:
    """name -> [calls, total seconds, self seconds] over a span forest.

    A span's self time is its duration minus the durations of its direct
    children; ``parents[i]`` is the index of span i's parent, or -1.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: Dict[str, List[float]] = {}
    for i, name in enumerate(names):
        dur = ends[i] - starts[i]
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child[i]
    return out


def merge(into: dict, other: dict) -> None:
    """Add the aggregate and counters of summary other into summary into."""
    for name, row in other["aggregate"].items():
        acc = into["aggregate"].setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    into["absent"] = other["absent"]
