"""The row-relevance test behind data-update invalidation.

A change to the *relation* is the one event the preference graph cannot
signal, so everything that depends on the data — predicate counts, id
lists, each session's pair table, materialised Top-K answers — asks one sound
question about each mutation: *can this tuple image satisfy this predicate?*

* :func:`exact_match_row` is the three-valued verdict (``None`` when the
  row lacks a referenced attribute), and only :class:`RowMatch` calls it:
  once per (distinct predicate, row) and sweep.
* :func:`may_match_row` folds ``None`` into a conservative ``True``: the
  judge invalidation needs, which :meth:`RowMatch.mask` derives from that
  same one verdict.
* :class:`RowMatch` is one mutation's rows, each distinct predicate tested
  against them at most once.  ``TopKServer._sweep`` builds one per mutation
  and every consumer reads its verdicts as row bitmasks.  A count, an id
  list, a pair of preferences and a cached answer's predicates are all
  conjunctions, and one rule — :meth:`RowMatch.shared`, *some row may match
  every conjunct* — judges all four.  The same one verdict per (predicate,
  row) also yields :meth:`RowMatch.exact`, *some row surely matches every
  conjunct*, which is what the result cache's repair scores with.

Nothing in this module touches a storage engine — predicates are evaluated
over event-carried rows — which is why the same relevance test serves every
:class:`~repro.backend.protocol.StorageBackend` unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Union

from ..core.predicate import (
    PredicateExpr,
    attribute_names_match,
    ensure_predicate,
)


def _row_has_attribute(row: Mapping[str, Any], attribute: str) -> bool:
    """Whether ``row`` carries a value for ``attribute`` (qualified or bare)."""
    if attribute in row:
        return True
    if "." in attribute and attribute.split(".", 1)[1] in row:
        # Qualified predicate attribute, bare-keyed row — the hot case.
        return True
    return any(attribute_names_match(attribute, key) for key in row)


def exact_match_row(predicate: Union[str, PredicateExpr],
                    row: Mapping[str, Any]) -> Optional[bool]:
    """Three-valued membership test: does the tuple ``row`` satisfy ``predicate``?

    Returns ``True``/``False`` — an **exact** in-memory verdict — when the
    row carries every attribute the predicate references, and ``None`` when
    some referenced attribute is absent, i.e. the question cannot be decided
    from the row alone.  The repair path of the result cache distinguishes
    the two (through :meth:`RowMatch.exact`): a ``None`` forces fallback to
    invalidation (the delta cannot be scored exactly), whereas
    :func:`may_match_row` folds it into a conservative ``True`` because
    invalidation only needs soundness.
    """
    predicate = ensure_predicate(predicate)
    if not all(_row_has_attribute(row, attribute)
               for attribute in predicate.attributes()):
        return None
    return predicate.evaluate(row)


def may_match_row(predicate: Union[str, PredicateExpr],
                  row: Mapping[str, Any]) -> bool:
    """Sound check: can the tuple ``row`` satisfy ``predicate``?

    This is the relevance test data-update invalidation runs for every
    mutation row (pre ∪ post image): a cached count or materialised Top-K
    answer can only change if one of its predicates *may* match one of them.
    The check is exact when the row carries every attribute the predicate
    references (plain in-memory evaluation) and falls back to ``True`` —
    conservative, never unsound — when some referenced attribute is absent
    from the row, so a ``False`` always proves the tuple irrelevant.
    """
    verdict = exact_match_row(predicate, row)
    return True if verdict is None else verdict


class RowMatch:
    """One mutation's rows, each distinct predicate judged at most once.

    ``rows`` are a :class:`~repro.sqldb.events.DataMutation`'s
    ``invalidation_rows()`` (pre ∪ post image).  :meth:`mask` judges one
    predicate, :meth:`shared` and :meth:`exact` a conjunction by its
    conjuncts' verdicts; every consumer of one sweep shares this object, so a
    predicate many users hold is evaluated once per mutation, not once per
    cache entry that mentions it.
    """

    def __init__(self, rows: Iterable[Mapping[str, Any]]) -> None:
        self.rows = tuple(rows)
        #: Per predicate key: rows it may match / rows it surely matches.
        self._masks: Dict[str, int] = {}
        self._exact: Dict[str, int] = {}
        #: ``exact_match_row`` evaluations made so far — always
        #: ``distinct_predicates * len(rows)``, the sweep's work counter.
        self.predicate_row_tests = 0

    @property
    def distinct_predicates(self) -> int:
        """Number of distinct predicate keys :meth:`mask` was asked about."""
        return len(self._masks)

    def mask(self, predicate: Union[str, PredicateExpr]) -> int:
        """Row bitmask: bit *i* is set iff ``may_match_row(predicate, rows[i])``.

        Memoised by the predicate's SQL text (a string is taken as its own
        key — the caches' keys are canonical renderings already).  One
        :func:`exact_match_row` per row gives both this mask and the
        surely-matching one :meth:`exact` reads.
        """
        key = predicate if isinstance(predicate, str) else predicate.to_sql()
        mask = self._masks.get(key)
        if mask is None:
            parsed = ensure_predicate(predicate)
            mask = exact = 0
            for index, row in enumerate(self.rows):
                verdict = exact_match_row(parsed, row)
                if verdict is not False:
                    mask |= 1 << index
                    if verdict:
                        exact |= 1 << index
            self._masks[key] = mask
            self._exact[key] = exact
            self.predicate_row_tests += len(self.rows)
        return mask

    def shared(self, conjuncts: Iterable[Union[str, PredicateExpr]]) -> int:
        """Row bitmask of the rows that may match *every* conjunct.

        The one staleness rule of a sweep: a count or id list keyed by its
        conjuncts, and a pair of preferences, can only have changed if this
        is non-zero.  Never looser than judging the conjunction whole — a
        conjunct that is definitely false on a row clears its bit even when
        another conjunct's attribute is absent from that row.
        """
        shared = (1 << len(self.rows)) - 1
        for conjunct in conjuncts:
            shared &= self.mask(conjunct)
        return shared

    def exact(self, conjuncts: Iterable[str]) -> int:
        """Row bitmask of the rows that surely match *every* conjunct.

        ``conjuncts`` are conjunct keys (SQL texts).  A bit set in
        :meth:`shared` but not here is a row whose verdict the row alone
        cannot decide; the result cache's repair must then fall back.
        """
        exact = (1 << len(self.rows)) - 1
        for conjunct in conjuncts:
            self.mask(conjunct)
            exact &= self._exact[conjunct]
        return exact
