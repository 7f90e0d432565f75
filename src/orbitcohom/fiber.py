"""Finite graded-commutative F2 algebras serving as fiber cohomology rings.

The main constructor builds the four-class ring of a space whose integral
cohomology is Z in degrees 0, n, 2n, 3n with v1*v1 = a*v2 and v1*v2 = b*v3,
reduced mod 2; arbitrary rings can be loaded from a JSON description.
A ring is checked when it is built: ``FiberRing(...)`` and ``load_fiber``
raise InvalidInputError for a table that breaks a ring axiom.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, FrozenSet, List, Tuple, Union

from .errors import InvalidInputError
from .record import Record, set_field

Parity = Union[int, str]

# Largest top degree or basis degree accepted. Every page mask is a few
# times as wide as the degrees, so cost grows about linearly with them:
# Z/2 at n = 100000 (top degree 300000) takes up to 1.1 s and 28 MB in
# the CLI on a 2-core Xeon, most of the time printing the Poincare lists.
MAX_DEGREE = 300_000

EMPTY: FrozenSet[str] = frozenset()


def _is_int(value) -> bool:
    """False for a float (2.0, 2.5, NaN), a string and a bool, which int()
    would truncate or misread without a word."""
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_parity(value: Parity) -> int:
    """Reduce an integer (or the words even/odd) to a residue mod 2."""
    if isinstance(value, str):
        word = value.strip().lower()
        if word in ("even", "odd"):
            return int(word == "odd")
        try:
            return int(word) % 2
        except ValueError:
            pass
    if not _is_int(value):
        raise InvalidInputError(f"not a parity: {value!r}")
    return value % 2


class FiberRing(Record):
    __slots__ = ("basis", "unit", "products", "top_degree", "warnings",
                 "_tbl", "_deg", "_names")

    def __init__(self, basis: Tuple[Tuple[str, int], ...], unit: str,
                 products: Tuple[Tuple[Tuple[str, str], FrozenSet[str]], ...],
                 top_degree: int, warnings: Tuple[str, ...] = ()):
        for key, value in ([("degree", deg) for _, deg in basis]
                           + [("top_degree", top_degree)]):
            if not _is_int(value):
                raise InvalidInputError(f"{key} must be an integer, got {value!r}")
        names = [name for name, _ in basis]
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate basis names")
        if unit not in names:
            raise InvalidInputError("unit is not a basis element")
        for name, deg in basis:
            if deg < 0:
                raise InvalidInputError(
                    f"basis element {name} has negative degree {deg}")
        top = max([top_degree] + [deg for _, deg in basis])
        if top > MAX_DEGREE:
            raise InvalidInputError(
                f"degree {top} is above the supported maximum {MAX_DEGREE}")
        known = set(names)
        for (u, v), value in products:
            unknown = sorted(({u, v} | value) - known)
            if unknown:
                raise InvalidInputError(
                    f"product {u}*{v} names unknown basis elements {unknown}")
        set_field(self, "basis", basis)
        set_field(self, "unit", unit)
        set_field(self, "products", products)
        set_field(self, "top_degree", top_degree)
        set_field(self, "warnings", warnings)
        table = {(v, u): value for (u, v), value in products}
        table.update(products)  # a given order wins over the mirrored one
        set_field(self, "_tbl", table)
        set_field(self, "_deg", dict(basis))
        set_field(self, "_names", {deg: name for name, deg in basis})
        problems = validate(self)
        if problems:
            raise InvalidInputError("invalid fiber ring: " + "; ".join(problems))

    @property
    def degrees(self) -> Dict[str, int]:
        return self._deg

    @property
    def names(self) -> Dict[int, str]:
        """Degree -> basis element; shorter than the basis when two
        elements share a degree."""
        return self._names

    def mult(self, u: str, v: str) -> FrozenSet[str]:
        """Product of two basis elements as an F2 combination (set of names)."""
        return self._tbl.get((u, v), EMPTY)

    def mult_set(self, left: FrozenSet[str], v: str) -> FrozenSet[str]:
        acc = EMPTY
        for u in left:
            acc = acc.symmetric_difference(self.mult(u, v))
        return acc


def make_type_ab(n: int, a_parity: Parity, b_parity: Parity) -> FiberRing:
    """Mod-2 fiber ring of a space with classes in degrees 0, n, 2n, 3n.

    Only the residues of a and b matter mod 2. For odd n an odd a is kept
    as a formal input but flagged: integral graded commutativity forces
    v1*v1 = 0 there, so no honest space realizes it.
    """
    if not _is_int(n) or n < 1:
        raise InvalidInputError("n must be a positive integer")
    a = normalize_parity(a_parity)
    b = normalize_parity(b_parity)
    basis = (("1", 0), ("v1", n), ("v2", 2 * n), ("v3", 3 * n))
    # One order of each nonzero product; FiberRing supplies the other.
    products = [(("1", u), frozenset({u})) for u, _ in basis]
    if a:
        products.append((("v1", "v1"), frozenset({"v2"})))
    if b:
        products.append((("v1", "v2"), frozenset({"v3"})))
    warnings = []
    if n % 2 == 1 and a == 1:
        warnings.append(
            "n odd with a odd is not integrally realizable (v1^2 = 0 is forced "
            "over Z); the mod-2 computation is formal")
    return FiberRing(
        basis=basis,
        unit="1",
        products=tuple(products),
        top_degree=3 * n,
        warnings=tuple(warnings),
    )


def validate(ring: FiberRing) -> List[str]:
    """All axiom violations, each naming the failing rule with witnesses;
    ``FiberRing`` refuses to build a ring with any."""
    violations: List[str] = []
    unit, degrees = ring.unit, ring.degrees
    given = dict(ring.products)  # so each order given is reported
    if degrees[unit] != 0:
        violations.append(f"unit: {unit} has degree {degrees[unit]}, not 0")
    for u in degrees:
        got = ring.mult(unit, u)
        if got != frozenset({u}):
            violations.append(f"unit law: {unit}*{u} = {sorted(got)}, expected [{u}]")
    for (u, v), value in given.items():
        if given.get((v, u), value) != value:
            violations.append(f"commutativity: {u}*{v} != {v}*{u}")
        want = degrees[u] + degrees[v]
        for term in sorted(value):
            if degrees[term] != want:
                violations.append(
                    f"degree additivity: {u}*{v} contains {term} of degree "
                    f"{degrees[term]}, expected {want}")
        if want > ring.top_degree and value:
            violations.append(
                f"top degree: {u}*{v} lands in degree {want} > {ring.top_degree} "
                "but is nonzero")
    # Once the unit law and commutativity hold, both checked above, every
    # triple holding the unit is associative ((1*v)*w = v*w = (v*w)*1, and so
    # on), so leaving those out refuses exactly the rings a full walk refuses.
    names = [name for name in degrees if name != unit]
    for u, v, w in itertools.product(names, repeat=3):
        left = ring.mult_set(ring.mult(u, v), w)
        right = ring.mult_set(ring.mult(v, w), u)
        if left != right:
            violations.append(
                f"associativity: ({u}*{v})*{w} = {sorted(left)} but "
                f"{u}*({v}*{w}) = {sorted(right)}")
    return violations


def _name(value, what: str) -> str:
    if isinstance(value, str):  # str() would read null as the name "None"
        return value
    raise InvalidInputError(f"{what} must be a string, got {value!r}")


def load_fiber(path: str) -> FiberRing:
    """Read a fiber ring from its JSON description.

    Keys: basis (list of {name, degree}), unit, products (list of
    {left, right, result: [names]}), top_degree; names are JSON strings.
    Missing products are zero, and u*v stands for v*u too.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8;
        # RecursionError, arrays nested too deep for the parser.
        raise InvalidInputError(f"cannot read fiber file {path}: {exc}") from exc
    try:
        basis = tuple((_name(b["name"], "basis name"), b["degree"])
                      for b in doc["basis"])
        unit = _name(doc["unit"], "unit")
        top_degree = doc["top_degree"]
        products = {}
        for entry in doc.get("products", []):
            key = (_name(entry["left"], "product left"),
                   _name(entry["right"], "product right"))
            if key in products:
                raise InvalidInputError(
                    f"product {key[0]}*{key[1]} is listed twice")
            result = entry["result"]
            if not (isinstance(result, list)
                    and all(isinstance(x, str) for x in result)):
                raise InvalidInputError(f"product {key[0]}*{key[1]}: result "
                                        f"must be a list of names, got {result!r}")
            products[key] = frozenset(result)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed fiber file {path}: {exc}") from exc
    for u, _ in basis:
        if (unit, u) not in products and (u, unit) not in products:
            products[(unit, u)] = frozenset({u})
    return FiberRing(basis=basis, unit=unit,
                     products=tuple(sorted(products.items())), top_degree=top_degree)
