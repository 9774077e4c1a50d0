"""Value handling shared by all consensus implementations.

Consensus values must be *hashable* (the protocols count equal proposals)
and need a *deterministic total order* for tie-breaking that is stable
across Python processes.  ``repr`` order of sets depends on hash
randomisation, so :func:`canonical_key` recursively canonicalises
containers; two runs with the same seed then make identical tie-break
choices even across interpreter restarts.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Hashable, Iterable

__all__ = ["canonical_key", "majority_value", "value_with_count_at_least"]


#: Per-dataclass-type field-name cache: ``dataclasses.fields`` rebuilds its
#: tuple on every call and canonical_key sits on protocol tie-break paths.
#: Only fields that take part in ``==`` count: a ``compare=False`` field is
#: derived (``AppMessage.msg_id``), and equal values must get equal keys.
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def canonical_key(value: Any) -> str:
    """A deterministic, hash-randomisation-proof ordering key for a value."""
    if isinstance(value, (frozenset, set)):
        inner = sorted(canonical_key(v) for v in value)
        return "{" + ",".join(inner) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(canonical_key(v) for v in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical_key(v) for v in value) + "]"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        tp = type(value)
        names = _FIELD_NAMES.get(tp)
        if names is None:
            _FIELD_NAMES[tp] = names = tuple(
                f.name for f in dataclasses.fields(value) if f.compare
            )
        fields = (f"{name}={canonical_key(getattr(value, name))}" for name in names)
        return tp.__name__ + "<" + ",".join(fields) + ">"
    return f"{type(value).__name__}:{value!r}"


def value_with_count_at_least(
    values: Iterable[Hashable], threshold: int
) -> Hashable | None:
    """The value appearing at least ``threshold`` times, or None.

    When more than one value crosses the threshold (possible if the caller
    counted over more than ``n - f`` messages), the one with the highest
    count wins; exact ties break on :func:`canonical_key` so every process
    makes the same choice.
    """
    values = list(values)
    if len(values) >= threshold:
        # Fast path: unanimity (the no-collision common case of one-step
        # runs) has a unique winner without building a Counter.
        first = values[0]
        for v in values:
            if v != first:
                break
        else:
            return first
    counts = Counter(values)
    eligible = [(count, v) for v, count in counts.items() if count >= threshold]
    if not eligible:
        return None
    best_count = max(count for count, _ in eligible)
    best = [v for count, v in eligible if count == best_count]
    if len(best) == 1:
        # Common case: a unique winner needs no tie-break, so the (recursive,
        # repr-heavy) canonical_key is computed only for genuine ties.
        return best[0]
    best.sort(key=canonical_key)
    return best[0]


def majority_value(values: Iterable[Hashable]) -> Hashable | None:
    """The strict-majority value among ``values``, or None.

    A strict majority (> half) is unique by definition, so no tie-break is
    needed; this mirrors line 14 of P-Consensus and the majority-voting
    safety argument of L-Consensus.
    """
    values = list(values)
    if not values:
        return None
    counts = Counter(values)
    value, count = counts.most_common(1)[0]
    if count * 2 > len(values):
        return value
    return None
