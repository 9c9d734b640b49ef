"""The row-relevance test behind data-update invalidation.

A change to the *relation* is the one event the preference graph cannot
signal, so everything that depends on the data — predicate counts, id
lists, each pair table, materialised Top-K answers — asks one sound
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
* :class:`ConjunctIndex` is the set of conjunct texts one store holds, with
  each ``attr = literal`` conjunct bucketed by its literal.  A mutation row
  carries one value per attribute, so it can match only the few keys under
  that value: :meth:`ConjunctIndex.live` hands :class:`RowMatch` those (and
  every conjunct of another shape) and no other, and the store visits only
  what the live conjuncts hold.

Nothing in this module touches a storage engine — predicates are evaluated
over event-carried rows — which is why the same relevance test serves every
:class:`~repro.backend.protocol.StorageBackend` unchanged.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Any, Dict, Hashable, Iterable, Mapping, Optional, Set,
                    Tuple, Union)

from ..core.predicate import (
    Condition,
    PredicateExpr,
    _as_number,
    _lookup,
    _sqlite_text,
    attribute_names_match,
    ensure_predicate,
)

Number = Union[int, float]


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


def _key(predicate: Union[str, PredicateExpr]) -> str:
    """A predicate's verdict key: its SQL text (a string is its own key —
    the caches' keys are canonical renderings already)."""
    return predicate if isinstance(predicate, str) else predicate.to_sql()


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
        """Number of distinct predicate keys judged so far."""
        return len(self._masks)

    @property
    def live_predicates(self) -> int:
        """Number of judged predicate keys some row may match."""
        return sum(1 for mask in self._masks.values() if mask)

    def mask(self, predicate: Union[str, PredicateExpr]) -> int:
        """Row bitmask: bit *i* is set iff ``may_match_row(predicate, rows[i])``.

        Memoised by the predicate's SQL text.  One :func:`exact_match_row`
        per row gives both this mask and the surely-matching one
        :meth:`exact` reads.
        """
        key = _key(predicate)
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

    def exact(self, conjuncts: Iterable[Union[str, PredicateExpr]]) -> int:
        """Row bitmask of the rows that surely match *every* conjunct.

        Takes the conjuncts :meth:`shared` takes, keyed the same way.  A bit
        set in :meth:`shared` but not here is a row whose verdict the row
        alone cannot decide; the result cache's repair must then fall back.
        """
        exact = (1 << len(self.rows)) - 1
        for conjunct in conjuncts:
            key = _key(conjunct)
            self.mask(key)
            exact &= self._exact[key]
        return exact


#: How one held conjunct is bucketed: ``(attribute, values)`` for an
#: ``attribute = literal`` conjunct — the row values that can equal the
#: literal are among ``values`` — and ``None`` for every other shape.
_Shape = Optional[Tuple[str, Tuple[Union[str, Number], ...]]]


@lru_cache(maxsize=8192)
def _equality_shape(conjunct: str) -> _Shape:
    """The bucket values a row value can reach ``conjunct`` through.

    ``Condition.evaluate`` compares an ``=`` literal the way SQLite's
    affinity does (:func:`~repro.core.predicate._compare_values`): a text
    value equals the literal's text (a numeric literal rendered as SQLite
    renders it), a numeric value equals the literal's number (a text literal
    coerced when it is numeric-shaped).  A text bucket value never equals a
    numeric one, so one dict holds both: a text row value finds the key only
    under its text, a number only under its number.  NULL and NaN literals,
    and every non-equality shape, are ``None``: a candidate for every row.
    Memoised: both serving stores hold the same conjuncts, and one returns
    whenever an answer holding it is recomputed.
    """
    parsed = ensure_predicate(conjunct)
    if not isinstance(parsed, Condition) or parsed.op != "=":
        return None
    literal = parsed.value
    if isinstance(literal, str):
        number = _as_number(literal)
        return parsed.attribute, ((literal,) if number is None
                                  else (literal, number))
    if isinstance(literal, (int, float)) and literal == literal:
        return parsed.attribute, (_sqlite_text(literal), literal)
    return None


class ConjunctIndex:
    """The conjunct texts one store holds, each with the entries holding it.

    A store registers every conjunct of every entry it keeps
    (:meth:`add`, :meth:`remove`); a conjunct stays held while any holder
    does.  An ``attribute = literal`` conjunct is bucketed under its
    attribute spelling by its literal's text and its literal's number
    (:func:`_equality_shape`); every other shape is *generic*.

    :meth:`candidates` over-approximates the keys some row may match: every
    generic key, and per row and bucketed attribute — all of the attribute's
    keys when the row lacks it (the verdict is ``None``), none when its
    value is NULL, the keys bucketed under its value when it is text or a
    number, and all of them for any other value type.  :meth:`live` then
    judges only the candidates, through the sweep's :class:`RowMatch` —
    still the only judge — so a key that is not a candidate costs nothing:
    its mask is provably 0.  A sweep visits the holders of the live keys
    and nothing else.
    """

    def __init__(self) -> None:
        #: Per held conjunct: the store's entries holding it.
        self._holders: Dict[str, Set[Hashable]] = {}
        self._generic: Set[str] = set()
        #: Per bucketed attribute spelling: all its keys / value -> keys.
        self._keys: Dict[str, Set[str]] = {}
        self._buckets: Dict[str, Dict[Any, Set[str]]] = {}

    def add(self, conjunct: str, holder: Hashable) -> None:
        """Record that ``holder`` holds ``conjunct``."""
        holders = self._holders.get(conjunct)
        if holders is None:
            holders = self._holders[conjunct] = set()
            shape = _equality_shape(conjunct)
            if shape is None:
                self._generic.add(conjunct)
            else:
                attribute, values = shape
                keys = self._keys.get(attribute)
                if keys is None:
                    keys = self._keys[attribute] = set()
                    self._buckets[attribute] = {}
                keys.add(conjunct)
                buckets = self._buckets[attribute]
                for value in values:
                    bucket = buckets.get(value)
                    if bucket is None:
                        buckets[value] = {conjunct}
                    else:
                        bucket.add(conjunct)
        holders.add(holder)

    def remove(self, conjunct: str, holder: Hashable) -> None:
        """Forget that ``holder`` holds ``conjunct``; the last holder's
        removal drops the conjunct from its buckets."""
        holders = self._holders[conjunct]
        holders.remove(holder)
        if holders:
            return
        del self._holders[conjunct]
        shape = _equality_shape(conjunct)
        if shape is None:
            self._generic.discard(conjunct)
            return
        attribute, values = shape
        keys = self._keys[attribute]
        keys.discard(conjunct)
        if not keys:
            del self._keys[attribute], self._buckets[attribute]
            return
        buckets = self._buckets[attribute]
        for value in values:
            bucket = buckets[value]
            bucket.discard(conjunct)
            if not bucket:
                del buckets[value]

    def holders(self, conjunct: str) -> Set[Hashable]:
        """The entries holding a held ``conjunct``."""
        return self._holders[conjunct]

    def candidates(self, rows: Iterable[Mapping[str, Any]]) -> Set[str]:
        """Every held key some row of ``rows`` may match, and maybe more."""
        found = set(self._generic)
        for row in rows:
            for attribute, keys in self._keys.items():
                if not _row_has_attribute(row, attribute):
                    found |= keys
                    continue
                value = _lookup(row, attribute)
                if value is None:
                    continue
                reached = keys
                if isinstance(value, (str, int, float)):
                    reached = self._buckets[attribute].get(value)
                if reached:
                    found |= reached
        return found

    def live(self, match: RowMatch) -> Set[str]:
        """The held keys some row of ``match`` may match: the candidates,
        each judged once by ``match``.  A mutation with no rows judges
        nothing."""
        if not match.rows:
            return set()
        return {key for key in self.candidates(match.rows) if match.mask(key)}

    def clear(self) -> None:
        """Forget every held conjunct."""
        self._holders.clear()
        self._generic.clear()
        self._keys.clear()
        self._buckets.clear()
