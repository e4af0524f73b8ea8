"""Expression trees for predicates and scalar computations.

Expressions are shared by the relational-algebra layer and the SQL executor.
They evaluate against a :class:`Scope` that resolves column references, and
they follow SQL three-valued logic: comparisons with NULL yield ``None``
(unknown), ``AND``/``OR``/``NOT`` propagate unknowns, and a WHERE clause
keeps only rows whose predicate evaluates to exactly ``True``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import AmbiguousColumn, RelationalError, UnknownColumn
from repro.relational.datatypes import is_comparable


class Scope:
    """Resolves column references to values for one logical row.

    ``columns`` is a sequence of ``(qualifier, name)`` pairs aligned with
    ``values``. Unqualified lookups succeed only when exactly one column in
    scope has the requested name.
    """

    __slots__ = ("columns", "values", "_qualified", "_unqualified", "parent")

    def __init__(
        self,
        columns: Sequence[tuple[str | None, str]],
        values: Sequence[Any],
        parent: "Scope | None" = None,
    ) -> None:
        self.columns = columns
        self.values = values
        self.parent = parent
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, list[int]] = {}
        for position, (qualifier, name) in enumerate(columns):
            if qualifier is not None:
                self._qualified[(qualifier.lower(), name.lower())] = position
            self._unqualified.setdefault(name.lower(), []).append(position)

    def resolve(self, qualifier: str | None, name: str) -> Any:
        lowered = name.lower()
        if qualifier is not None:
            position = self._qualified.get((qualifier.lower(), lowered))
            if position is not None:
                return self.values[position]
            if self.parent is not None:
                return self.parent.resolve(qualifier, name)
            raise UnknownColumn(f"no column {qualifier}.{name} in scope")
        positions = self._unqualified.get(lowered, [])
        if len(positions) == 1:
            return self.values[positions[0]]
        if len(positions) > 1:
            raise AmbiguousColumn(f"column name {name!r} is ambiguous")
        if self.parent is not None:
            return self.parent.resolve(qualifier, name)
        raise UnknownColumn(f"no column {name!r} in scope")


@functools.lru_cache(maxsize=1024)
@functools.lru_cache(maxsize=1024)
def _compile_like(pattern: str) -> re.Pattern[str]:
    """Compile a LIKE pattern once; predicates re-evaluate per row.

    Memoized: callers ask for the regex on every row they test, and the
    translation walks the pattern a character at a time.
    """
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, scope: Scope) -> Any:
        raise NotImplementedError

    def references(self) -> set[tuple[str | None, str]]:
        """All column references appearing in this expression subtree."""
        return set()

    def __and__(self, other: "Expression") -> "Expression":
        return conjoin([self, other])


@dataclass(frozen=True)
class Literal(Expression):
    value: Any

    def evaluate(self, scope: Scope) -> Any:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is None:
            return "NULL"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    name: str
    qualifier: str | None = None

    def evaluate(self, scope: Scope) -> Any:
        return scope.resolve(self.qualifier, self.name)

    def references(self) -> set[tuple[str | None, str]]:
        return {(self.qualifier, self.name)}

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """Binary comparison with SQL NULL semantics (NULL compares to unknown)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise RelationalError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, scope: Scope) -> bool | None:
        left = self.left.evaluate(scope)
        right = self.right.evaluate(scope)
        if left is None or right is None:
            return None
        if self.op in ("=", "!="):
            if type(left) is bool or type(right) is bool:
                if type(left) is not type(right):
                    return None
            return _COMPARISONS[self.op](left, right)
        if not is_comparable(left, right):
            return None
        return _COMPARISONS[self.op](left, right)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class And(Expression):
    operands: tuple[Expression, ...]

    def evaluate(self, scope: Scope) -> bool | None:
        saw_unknown = False
        for operand in self.operands:
            value = operand.evaluate(scope)
            if value is False:
                return False
            if value is None:
                saw_unknown = True
        return None if saw_unknown else True

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def __str__(self) -> str:
        return " AND ".join(_parenthesize(op) for op in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    operands: tuple[Expression, ...]

    def evaluate(self, scope: Scope) -> bool | None:
        saw_unknown = False
        for operand in self.operands:
            value = operand.evaluate(scope)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for operand in self.operands:
            refs |= operand.references()
        return refs

    def __str__(self) -> str:
        return " OR ".join(_parenthesize(op) for op in self.operands)


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def evaluate(self, scope: Scope) -> bool | None:
        value = self.operand.evaluate(scope)
        if value is None:
            return None
        return not value

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __str__(self) -> str:
        return f"NOT {_parenthesize(self.operand)}"


@dataclass(frozen=True)
class Like(Expression):
    """SQL LIKE with ``%`` (any run) and ``_`` (single char); case-insensitive.

    The paper's examples (``country like '%Korea%'``) rely on substring
    matching; we follow PostgreSQL's ILIKE behaviour because the ETable UI
    performs case-insensitive contains-filters.
    """

    operand: Expression
    pattern: str
    negate: bool = False

    def _regex(self) -> re.Pattern[str]:
        return _compile_like(self.pattern)

    def evaluate(self, scope: Scope) -> bool | None:
        value = self.operand.evaluate(scope)
        if value is None:
            return None
        matched = bool(self._regex().match(str(value)))
        return not matched if self.negate else matched

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __str__(self) -> str:
        keyword = "NOT LIKE" if self.negate else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"{self.operand} {keyword} '{escaped}'"


@dataclass(frozen=True)
class InList(Expression):
    operand: Expression
    values: tuple[Any, ...]
    negate: bool = False

    def evaluate(self, scope: Scope) -> bool | None:
        value = self.operand.evaluate(scope)
        if value is None:
            return None
        found = value in self.values
        return not found if self.negate else found

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __str__(self) -> str:
        keyword = "NOT IN" if self.negate else "IN"
        rendered = ", ".join(str(Literal(v)) for v in self.values)
        return f"{self.operand} {keyword} ({rendered})"


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negate: bool = False

    def evaluate(self, scope: Scope) -> bool:
        value = self.operand.evaluate(scope)
        return (value is not None) if self.negate else (value is None)

    def references(self) -> set[tuple[str | None, str]]:
        return self.operand.references()

    def __str__(self) -> str:
        keyword = "IS NOT NULL" if self.negate else "IS NULL"
        return f"{self.operand} {keyword}"


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise RelationalError(f"unknown arithmetic operator {self.op!r}")

    def evaluate(self, scope: Scope) -> Any:
        left = self.left.evaluate(scope)
        right = self.right.evaluate(scope)
        if left is None or right is None:
            return None
        if self.op == "/" and right == 0:
            raise RelationalError("division by zero")
        return _ARITHMETIC[self.op](left, right)

    def references(self) -> set[tuple[str | None, str]]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"{_parenthesize(self.left)} {self.op} {_parenthesize(self.right)}"


_SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "lower": lambda s: s.lower() if isinstance(s, str) else s,
    "upper": lambda s: s.upper() if isinstance(s, str) else s,
    "length": lambda s: len(s) if s is not None else None,
    "abs": lambda x: abs(x) if x is not None else None,
    "coalesce": lambda *args: next((a for a in args if a is not None), None),
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str
    args: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name.lower() not in _SCALAR_FUNCTIONS:
            raise RelationalError(f"unknown function {self.name!r}")

    def evaluate(self, scope: Scope) -> Any:
        values = [arg.evaluate(scope) for arg in self.args]
        func = _SCALAR_FUNCTIONS[self.name.lower()]
        if self.name.lower() != "coalesce" and any(v is None for v in values):
            return None
        return func(*values)

    def references(self) -> set[tuple[str | None, str]]:
        refs: set[tuple[str | None, str]] = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def __str__(self) -> str:
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.name.upper()}({rendered})"


def _parenthesize(expr: Expression) -> str:
    if isinstance(expr, (And, Or, Arithmetic)):
        return f"({expr})"
    return str(expr)


def conjoin(predicates: Iterable[Expression]) -> Expression:
    """AND together predicates, flattening nested :class:`And` nodes.

    Returns ``Literal(True)`` for an empty input so callers can always
    filter unconditionally.
    """
    flat: list[Expression] = []
    for predicate in predicates:
        if isinstance(predicate, And):
            flat.extend(predicate.operands)
        else:
            flat.append(predicate)
    if not flat:
        return Literal(True)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def column(name: str, qualifier: str | None = None) -> ColumnRef:
    """Shorthand used pervasively in tests: ``column("year", "Papers")``."""
    return ColumnRef(name, qualifier)


def equals(ref: str | ColumnRef, value: Any, qualifier: str | None = None) -> Comparison:
    """Shorthand for ``ref = literal`` predicates."""
    expr = ref if isinstance(ref, ColumnRef) else ColumnRef(ref, qualifier)
    return Comparison("=", expr, Literal(value))
