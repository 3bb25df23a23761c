"""Field constraints, each stated once.

A parameter record declares every constraint on its own fields, with
``x: float = POSITIVE.field()``: the field's metadata holds a :class:`Spec`
giving its kind (number, integer or non-empty string), its bounds, and its
JSON key where that differs from the field name. The rule that makes a
class a checked record is stated once, as ``@record``: the class becomes a
frozen dataclass whose ``__post_init__`` is :func:`check_fields`, run
before the class's own hook where it has one, which raises on the first
violation. The config loader asks :meth:`Spec.problem` about each JSON
value and reports every violation in one :class:`ConfigError`. Function
arguments with the same constraint as a field reuse its spec through
:meth:`Spec.check`: the model kernels,
``predict_proba`` and ``retention_criterion`` check every scalar argument
with :data:`FINITE`, and ``RetentionModel`` its scaler pairs with
:data:`FINITE` and :data:`POSITIVE`.

Kinds are declared, not read from annotations (which are strings here). A
number is any finite real (numpy scalars included) and an integer any
``Integral`` (numpy integers included); a bool is neither. A record stores
a checked number as a Python float, whatever real it was given
(``float(value)``: an int, a numpy scalar or a Fraction is converted, a
float is stored as it is), and a checked integer as the Python int it
equals (``int(value)``; an int is stored as it is). A function gets the
same float or int back from :meth:`Spec.check`. So every kernel computes
in double, and every count in Python ints: a float32 or int64 field or
argument never carries its own precision into the arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import cache
from numbers import Integral, Real

NUMBER, INTEGER, STRING = "number", "integer", "string"

_MAX = sys.float_info.max


@dataclass(frozen=True)
class Spec:
    """The constraint on one field: kind, bounds (``ge``/``gt``/``lt``/``le``)
    and the JSON key, when it is not the field name."""

    kind: str
    ge: float | None = None
    gt: float | None = None
    lt: float | None = None
    le: float | None = None
    key: str | None = None
    _fast: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # check()'s fast path for an exact float or int, the type it
        # converts any other accepted value to, and the bounds as one
        # closed range (no float lies between gt and nextafter(gt, inf)). An
        # unbounded side ends at the largest finite float, shutting out inf
        # and nan; anything outside the range gets problem()'s verdict.
        lo = self.ge if self.ge is not None else -_MAX if self.gt is None else math.nextafter(self.gt, math.inf)
        hi = self.le if self.le is not None else _MAX if self.lt is None else math.nextafter(self.lt, -math.inf)
        exact = {NUMBER: float, INTEGER: int}.get(self.kind)
        object.__setattr__(self, "_fast", (exact, lo, hi))

    def field(self, default=dataclasses.MISSING):
        """A dataclass field constrained by this spec."""
        return dataclasses.field(default=default, metadata={"spec": self})

    def problem(self, value) -> str | None:
        """What is wrong with value, as ``must be ..., got ...``; None if
        nothing is."""
        if self.kind == NUMBER:
            # float and int first: the Real ABC check is slow.
            if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
                return f"must be a number, got {value!r}"
            try:
                value = float(value)
            except OverflowError:
                # An int of 309+ digits: exact in Python, but no float holds it.
                return "must be finite, got an integer too large for a float"
            if not math.isfinite(value):
                return f"must be finite, got {value!r}"
        elif self.kind == INTEGER:
            # int first: the Integral ABC check is slow.
            if isinstance(value, bool) or not isinstance(value, (int, Integral)):
                return f"must be an integer, got {value!r}"
            value = int(value)
        elif not (isinstance(value, str) and value):
            return f"must be a non-empty string, got {value!r}"
        if self.ge is not None and not value >= self.ge:
            return f"must be >= {self.ge}, got {value}"
        if self.gt is not None and not value > self.gt:
            return f"must be > {self.gt}, got {value}"
        if self.lt is not None and not value < self.lt:
            return f"must be < {self.lt}, got {value}"
        if self.le is not None and not value <= self.le:
            return f"must be <= {self.le}, got {value}"
        return None

    def check(self, name: str, value):
        """value as checked: ``float(value)`` for a number, ``int(value)``
        for an integer (an exact float or int is value itself), value
        itself for a string. Raise ValueError, naming name, if value breaks
        this spec."""
        exact, lo, hi = self._fast
        if value.__class__ is exact and lo <= value <= hi:
            return value
        problem = self.problem(value)
        if problem is not None:
            raise ValueError(f"{name} {problem}")
        return value if exact is None else exact(value)


class ConfigError(ValueError):
    """Invalid run configuration; carries one message per violation."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  {v}" for v in self.violations))

    def __reduce__(self):
        return ConfigError, (self.violations,)


def check_fields(obj) -> None:
    """Raise ValueError for the first field of a record that breaks its
    spec, and store each checked number as a float and each checked
    integer as an int."""
    for name, spec in _specs(type(obj)):
        value = getattr(obj, name)
        checked = spec.check(name, value)
        if checked is not value:
            object.__setattr__(obj, name, checked)


def record(cls):
    """cls as a frozen dataclass that checks its fields when built: its
    ``__post_init__`` is :func:`check_fields`, followed by the class's own
    ``__post_init__`` when it defines one."""
    own = cls.__dict__.get("__post_init__")
    if own is None:
        cls.__post_init__ = check_fields
    else:
        def __post_init__(self) -> None:
            check_fields(self)
            own(self)

        cls.__post_init__ = __post_init__
    return dataclass(frozen=True)(cls)


@cache
def _specs(cls) -> tuple[tuple[str, Spec], ...]:
    return tuple((f.name, f.metadata["spec"]) for f in dataclasses.fields(cls) if "spec" in f.metadata)


# Constraints that several fields, or a field and a function argument, share.
FINITE = Spec(NUMBER)
POSITIVE = Spec(NUMBER, gt=0.0)
NON_NEGATIVE = Spec(NUMBER, ge=0.0)
AT_LEAST_ONE = Spec(NUMBER, ge=1.0)
UNIT = Spec(NUMBER, ge=0.0, le=1.0)
UNIT_OPEN = Spec(NUMBER, gt=0.0, lt=1.0)
UNIT_BELOW_ONE = Spec(NUMBER, ge=0.0, lt=1.0)
COUNT = Spec(INTEGER, ge=0)
POSITIVE_COUNT = Spec(INTEGER, ge=1)
NON_EMPTY = Spec(STRING)
