"""The row-relevance test behind data-update invalidation.

A change to the *relation* is the one event the preference graph cannot
signal, so everything that depends on the data — predicate counts, id
lists, each pair table, materialised Top-K answers — asks one sound
question about each mutation: *can this tuple image satisfy this predicate?*

* :func:`exact_match_row` is the three-valued verdict (``None`` when the
  row lacks a referenced attribute), and only :class:`RowMatch` calls it:
  once per (distinct generic predicate, row) and sweep.
* :func:`may_match_row` folds ``None`` into a conservative ``True``: the
  judge invalidation needs, which :meth:`RowMatch.mask` derives from that
  same one verdict.
* :class:`RowMatch` is one mutation's facts — its rows, which are the
  post-image, each pid's rows — with each distinct predicate tested against
  the rows at most once.  ``TopKServer._sweep`` builds one per mutation
  (:meth:`RowMatch.of`) and hands every store that and nothing else.  A
  count, an id list, a pair of preferences and a cached answer's predicates
  are all conjunctions, and one rule — :meth:`RowMatch.shared`, *some row
  may match every conjunct* — judges all four.  The same one verdict per
  (predicate, row) also yields :meth:`RowMatch.exact`, *some row surely
  matches every conjunct*, which the two serving stores patch and repair
  with.
* :class:`ConjunctIndex` is the set of conjunct texts one store holds, with
  each ``attr = literal`` conjunct bucketed by its literal.  A mutation row
  carries one value per attribute, and the keys under that value are
  exactly the ones it matches: :meth:`ConjunctIndex.live` records those
  verdicts with :meth:`RowMatch.record`, hands :class:`RowMatch` every
  conjunct of another shape to judge, and the store visits only what the
  live conjuncts hold.

Nothing in this module touches a storage engine — predicates are evaluated
over event-carried rows — which is why the same relevance test serves every
:class:`~repro.backend.protocol.StorageBackend` unchanged.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
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
from ..sqldb.events import DataMutation

Number = Union[int, float]

#: :meth:`RowMatch.values`' stand-in for an attribute a row lacks.
ABSENT = object()


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
    """One mutation's facts, each distinct predicate judged at most once.

    ``rows`` are a :class:`~repro.sqldb.events.DataMutation`'s
    ``invalidation_rows()`` (pre ∪ post image), the first ``post`` of them
    the post-image (:meth:`of`).  :meth:`mask` judges one predicate,
    :meth:`shared` and :meth:`exact` a conjunction by its conjuncts'
    verdicts; every store of one sweep shares this object, so a predicate
    many users hold is evaluated once per mutation, not once per cache
    entry that mentions it.  A store that only drops (a count, a pair
    table) needs ``RowMatch(rows)`` alone.
    """

    def __init__(self, rows: Iterable[Mapping[str, Any]],
                 post: int = 0) -> None:
        self.rows = tuple(rows)
        #: Bitmask of the post-image rows: the first ``post`` of ``rows``.
        self.post_rows = (1 << post) - 1
        #: Per predicate key: rows it may match / rows it surely matches.
        self._masks: Dict[str, int] = {}
        self._exact: Dict[str, int] = {}
        #: Per attribute spelling: each row's value (:meth:`values`).
        self._values: Dict[str, Tuple[Any, ...]] = {}
        #: ``exact_match_row`` evaluations made so far — ``len(rows)`` per
        #: key :meth:`mask` judged, none per key :meth:`record` took: the
        #: sweep's work counter.
        self.predicate_row_tests = 0

    @classmethod
    def of(cls, mutation: DataMutation) -> "RowMatch":
        """The match one sweep shares, ``mutation.rows`` leading."""
        return cls(mutation.invalidation_rows(), len(mutation.rows))

    @cached_property
    def images(self) -> Tuple[Tuple[int, int], ...]:
        """Each pid a row carries with the bitmask of its rows, ascending by
        pid.  ``image & post_rows`` must be the pid's *complete* joined-row
        image — the producer obligation both patching stores rely on, which
        the loader meets for every mutation kind."""
        images: Dict[int, int] = {}
        for index, row in enumerate(self.rows):
            pid = int(row["pid"])
            images[pid] = images.get(pid, 0) | 1 << index
        return tuple(sorted(images.items()))

    @property
    def distinct_predicates(self) -> int:
        """Number of distinct predicate keys decided so far, judged or
        recorded."""
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

    def record(self, key: str, mask: int, exact: int) -> None:
        """Take the verdicts on ``key`` that :meth:`mask` would compute —
        ``mask`` the rows it may match, ``exact`` those it surely matches —
        from a caller that decided them without evaluating it
        (:meth:`ConjunctIndex.live`).  A key already decided keeps its
        verdicts."""
        if key not in self._masks:
            self._masks[key] = mask
            self._exact[key] = exact

    def values(self, attribute: str) -> Tuple[Any, ...]:
        """Each row's value of ``attribute`` (qualified or bare), or
        :data:`ABSENT` where the row lacks it.  Read once per attribute
        spelling: every store's :meth:`ConjunctIndex.live` shares it."""
        values = self._values.get(attribute)
        if values is None:
            # The exact and the bare spelling first (the hot case), then
            # the scan ``_row_has_attribute`` and ``_lookup`` share.
            bare = attribute.split(".", 1)[-1]
            read = []
            for row in self.rows:
                if attribute in row:
                    read.append(row[attribute])
                elif bare in row:
                    read.append(row[bare])
                elif _row_has_attribute(row, attribute):
                    read.append(_lookup(row, attribute))
                else:
                    read.append(ABSENT)
            values = self._values[attribute] = tuple(read)
        return values

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
#: ``attribute = literal`` conjunct — a text or number row value matches it
#: iff it equals one of ``values`` — and ``None`` for every other shape.
_Shape = Optional[Tuple[str, Tuple[Union[str, Number], ...]]]


@lru_cache(maxsize=8192)
def _equality_shape(conjunct: str) -> _Shape:
    """The bucket values a row value matches ``conjunct`` through.

    ``Condition.evaluate`` compares an ``=`` literal the way SQLite's
    affinity does (:func:`~repro.core.predicate._compare_values`): a text
    value equals the literal's text (a numeric literal rendered as SQLite
    renders it), a numeric value equals the literal's number (a text literal
    coerced when it is numeric-shaped).  A text bucket value never equals a
    numeric one, so one dict holds both: a text row value finds the key only
    under its text, a number only under its number — and Python's ``==``
    and ``hash`` agree across ``int``, ``float`` and ``bool``, so a lookup
    finds exactly the keys ``evaluate`` calls equal.  The NULL literal
    equals no value (SQL's ``= NULL`` is never true), so it is bucketed
    under none.  NaN literals, and every non-equality shape, are ``None``:
    generic, judged for every row.
    Memoised: both serving stores hold the same conjuncts, and one returns
    whenever an answer holding it is recomputed.
    """
    parsed = ensure_predicate(conjunct)
    if not isinstance(parsed, Condition) or parsed.op != "=":
        return None
    literal = parsed.value
    if literal is None:
        return parsed.attribute, ()
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
    does.  Each (conjunct, holder) carries one payload the store chooses —
    the result cache keeps its score-bound factors there, so a sweep reads
    them from the holders it visits anyway and no second map is kept in
    sync.  An ``attribute = literal`` conjunct is bucketed under its
    attribute spelling by its literal's text and its literal's number
    (:func:`_equality_shape`); every other shape is *generic*.

    :meth:`live` decides, once per sweep, which held keys some row may
    match.  A row value of an ``attribute = literal``
    key's attribute reaches the key's bucket exactly when it equals the
    literal, so for a bucketed attribute the lookup *is* the verdict: a
    text or number value sets the may- and the sure-bit of the keys under
    it, an absent attribute only the may-bit of every key of it (the
    verdict is ``None``), and NULL nothing.  :meth:`live` records these
    through :meth:`RowMatch.record`, with no predicate evaluated; a value of
    any other type sends its attribute's keys, and every generic key, to
    :meth:`RowMatch.mask`.  A key neither recorded nor judged has mask 0.
    A sweep visits the holders of the live keys and nothing else.
    """

    def __init__(self) -> None:
        #: Per held conjunct: the store's entries holding it -> the payload
        #: each carries under it.
        self._holders: Dict[str, Dict[Hashable, Any]] = {}
        self._generic: Set[str] = set()
        #: Per bucketed attribute spelling: all its keys / value -> keys.
        self._keys: Dict[str, Set[str]] = {}
        self._buckets: Dict[str, Dict[Any, Set[str]]] = {}

    def add(self, conjunct: str, holder: Hashable, payload: Any = None) -> None:
        """Record that ``holder`` holds ``conjunct``, carrying ``payload``."""
        holders = self._holders.get(conjunct)
        if holders is None:
            holders = self._holders[conjunct] = {}
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
        holders[holder] = payload

    def remove(self, conjunct: str, holder: Hashable) -> None:
        """Forget that ``holder`` holds ``conjunct``; the last holder's
        removal drops the conjunct from its buckets."""
        holders = self._holders[conjunct]
        del holders[holder]
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

    def holders(self, conjunct: str) -> Dict[Hashable, Any]:
        """The entries holding a held ``conjunct``, each with its payload."""
        return self._holders[conjunct]

    def live(self, match: RowMatch) -> Set[str]:
        """The held keys some row of ``match`` may match, their verdicts
        left in ``match``: a bucketed attribute's from the bucket lookup,
        every other key's from :meth:`RowMatch.mask`.  A mutation with no
        rows decides nothing."""
        found: Set[str] = set()
        if not match.rows:
            return found
        for attribute, keys in self._keys.items():
            buckets = self._buckets[attribute]
            # Key -> rows that reach it; rows lacking the attribute.
            reached: Dict[str, int] = {}
            absent = 0
            for index, value in enumerate(match.values(attribute)):
                if value is None:
                    continue
                if value is ABSENT:
                    absent |= 1 << index
                elif isinstance(value, (str, int, float)):
                    for key in buckets.get(value, ()):
                        reached[key] = reached.get(key, 0) | 1 << index
                else:
                    break
            else:
                # No value of another type: the lookup decided every key.
                if absent:
                    for key in keys:
                        surely = reached.get(key, 0)
                        match.record(key, surely | absent, surely)
                    found |= keys
                else:
                    for key, surely in reached.items():
                        match.record(key, surely, surely)
                    found.update(reached)
                continue
            # A value of another type: evaluate the attribute's keys.
            found.update(key for key in keys if match.mask(key))
        found.update(key for key in self._generic if match.mask(key))
        return found

    def clear(self) -> None:
        """Forget every held conjunct."""
        self._holders.clear()
        self._generic.clear()
        self._keys.clear()
        self._buckets.clear()
