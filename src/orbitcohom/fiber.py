"""Finite graded-commutative F2 algebras serving as fiber cohomology rings.

The main constructor builds the four-class ring of a space whose integral
cohomology is Z in degrees 0, n, 2n, 3n with v1*v1 = a*v2 and v1*v2 = b*v3,
reduced mod 2; arbitrary rings can be loaded from a JSON description.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, List, Tuple, Union

from .errors import InvalidInputError
from .record import Record

Parity = Union[int, str]

# Largest top degree or basis degree accepted. Every page mask is a few
# times as wide as the degrees, so cost grows about linearly with them:
# Z/2 at n = 100000 (top degree 300000) takes up to 1.1 s and 28 MB in
# the CLI on a 2-core Xeon, most of the time printing the Poincare lists.
MAX_DEGREE = 300_000


def _is_int(value) -> bool:
    """False for a float (2.0, 2.5, NaN), a string and a bool, which int()
    would truncate or misread without a word."""
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_parity(value: Parity) -> int:
    """Reduce an integer (or the words even/odd) to a residue mod 2."""
    if isinstance(value, str):
        word = value.strip().lower()
        if word == "even":
            return 0
        if word == "odd":
            return 1
        try:
            return int(word) % 2
        except ValueError:
            raise InvalidInputError(f"not a parity: {value!r}") from None
    return int(value) % 2


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
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "top_degree", top_degree)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "_tbl", dict(products))
        object.__setattr__(self, "_deg", dict(basis))
        object.__setattr__(self, "_names", {deg: name for name, deg in basis})

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
        table = self._tbl
        hit = table.get((u, v))
        if hit is None:
            hit = table.get((v, u))
        return hit if hit is not None else frozenset()

    def mult_set(self, left: FrozenSet[str], v: str) -> FrozenSet[str]:
        acc: FrozenSet[str] = frozenset()
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
    names = [name for name, _ in basis]
    products: Dict[Tuple[str, str], FrozenSet[str]] = {}
    for u in names:
        products[("1", u)] = frozenset({u})
        products[(u, "1")] = frozenset({u})
    nontrivial = {
        ("v1", "v1"): frozenset({"v2"}) if a else frozenset(),
        ("v1", "v2"): frozenset({"v3"}) if b else frozenset(),
    }
    for (u, v), value in nontrivial.items():
        products[(u, v)] = value
        products[(v, u)] = value
    for u in ("v1", "v2", "v3"):
        for v in ("v1", "v2", "v3"):
            products.setdefault((u, v), frozenset())
    warnings = []
    if n % 2 == 1 and a == 1:
        warnings.append(
            "n odd with a odd is not integrally realizable (v1^2 = 0 is forced "
            "over Z); the mod-2 computation is formal")
    return FiberRing(
        basis=basis,
        unit="1",
        products=tuple(sorted(products.items())),
        top_degree=3 * n,
        warnings=tuple(warnings),
    )


def point_ring() -> FiberRing:
    return FiberRing(basis=(("1", 0),), unit="1",
                     products=((("1", "1"), frozenset({"1"})),), top_degree=0)


def validate(ring: FiberRing) -> List[str]:
    """All axiom violations, each naming the failing rule with witnesses."""
    violations: List[str] = []
    degrees = ring.degrees
    names = [name for name, _ in ring.basis]
    table = ring._tbl
    if degrees[ring.unit] != 0:
        violations.append(f"unit: {ring.unit} has degree {degrees[ring.unit]}, not 0")
    for u in names:
        got = ring.mult(ring.unit, u)
        if got != frozenset({u}):
            violations.append(f"unit law: 1*{u} = {sorted(got)}, expected [{u}]")
    for (u, v), value in table.items():
        other = table.get((v, u))
        if other is not None and other != value:
            violations.append(f"commutativity: {u}*{v} != {v}*{u}")
        want = degrees[u] + degrees[v]
        for term in value:
            if degrees[term] != want:
                violations.append(
                    f"degree additivity: {u}*{v} contains {term} of degree "
                    f"{degrees[term]}, expected {want}")
        if want > ring.top_degree and value:
            violations.append(
                f"top degree: {u}*{v} lands in degree {want} > {ring.top_degree} "
                "but is nonzero")
    for u in names:
        for v in names:
            for w in names:
                left = ring.mult_set(ring.mult(u, v), w)
                right = ring.mult_set(ring.mult(v, w), u)
                if left != right:
                    violations.append(
                        f"associativity: ({u}*{v})*{w} = {sorted(left)} but "
                        f"{u}*({v}*{w}) = {sorted(right)}")
    return violations


def load_fiber(path: str) -> FiberRing:
    """Read a fiber ring from its JSON description.

    Keys: basis (list of {name, degree}), unit, products (list of
    {left, right, result: [names]}), top_degree. Missing products are zero.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8;
        # RecursionError, arrays nested too deep for the parser.
        raise InvalidInputError(f"cannot read fiber file {path}: {exc}") from exc
    try:
        basis = tuple((str(b["name"]), b["degree"]) for b in doc["basis"])
        unit = str(doc["unit"])
        top_degree = doc["top_degree"]
        products = {}
        for entry in doc.get("products", []):
            key = (str(entry["left"]), str(entry["right"]))
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
    names = {name for name, _ in basis}
    for u in names:
        products.setdefault((unit, u), frozenset({u}))
        products.setdefault((u, unit), frozenset({u}))
    return FiberRing(basis=basis, unit=unit,
                     products=tuple(sorted(products.items())), top_degree=top_degree)
