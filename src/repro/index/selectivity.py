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
* :class:`ConjunctIndex` is the set of conjunct keys a server's stores
  hold, one index for both, with each ``attr = literal`` conjunct bucketed
  by its literal.  A mutation row carries one value per attribute, and the
  conjuncts under that value are exactly the ones it matches:
  :meth:`ConjunctIndex.live` records those verdicts with
  :meth:`RowMatch.record` and hands :class:`RowMatch` every conjunct of
  another shape to judge, and :meth:`ConjunctIndex.stale` names the keys
  whose conjuncts some one row may all match — once per sweep, memoised on
  the match, for both stores to walk.

Nothing in this module touches a storage engine — predicates are evaluated
over event-carried rows — which is why the same relevance test serves every
:class:`~repro.backend.protocol.StorageBackend` unchanged.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import (Any, Dict, FrozenSet, Iterable, Mapping, Optional, Set,
                    Tuple, Union)

from ..core.predicate import (
    Condition,
    PredicateExpr,
    _equality_keys,
    _lookup,
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
        #: Per index asked: its stale keys (:meth:`ConjunctIndex.stale`).
        self._stale: Dict["ConjunctIndex", Set[FrozenSet[str]]] = {}

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
    affinity does, and :func:`~repro.core.predicate._equality_keys` names
    the dict keys a value equal to the literal is found under — the rule
    the columnar engine looks its own equality buckets up by.  A text or
    number row value therefore reaches the conjunct's bucket exactly when
    ``evaluate`` calls it equal; the NULL literal is bucketed under no
    value (SQL's ``= NULL`` is never true).  Every non-equality shape is
    ``None``: generic, judged for every row.
    Memoised: a conjunct returns whenever a key holding it is memoised or
    scored again.
    """
    parsed = ensure_predicate(conjunct)
    if not isinstance(parsed, Condition) or parsed.op != "=":
        return None
    return parsed.attribute, _equality_keys(parsed.value)


class ConjunctIndex:
    """The conjunct keys a server's stores hold, one index for both.

    A key is the conjunct set of an id list or a scored preference
    (:meth:`~repro.index.CountCache.key`).  A store calls :meth:`add` when
    it starts holding a key and :meth:`remove` when it stops; a key stays
    held while any store holds it.  An ``attribute = literal`` conjunct is
    bucketed under its attribute spelling by its literal's text and number
    (:func:`_equality_shape`); every other shape is *generic*.

    :meth:`live` is the bucket pass.  A row value reaches an
    ``attribute = literal`` conjunct's bucket exactly when it equals the
    literal, so the lookup *is* the verdict: a text or number value sets
    the may- and the sure-bit of the conjuncts under it, an absent
    attribute only the may-bit of every conjunct of it, and NULL nothing —
    recorded through :meth:`RowMatch.record`, with no predicate evaluated.
    A value of any other type sends its attribute's conjuncts, and every
    generic one, to :meth:`RowMatch.mask`.  :meth:`stale` turns the live
    conjuncts into the stale keys once per sweep, for both stores.
    """

    def __init__(self) -> None:
        #: Per conjunct of a held key: each held key containing it -> how
        #: many stores hold that key.
        self._holders: Dict[str, Dict[FrozenSet[str], int]] = {}
        self._generic: Set[str] = set()
        #: Per bucketed attribute spelling: all its conjuncts / value ->
        #: conjuncts.
        self._keys: Dict[str, Set[str]] = {}
        self._buckets: Dict[str, Dict[Any, Set[str]]] = {}

    def add(self, key: FrozenSet[str]) -> None:
        """Record that one more store holds ``key``."""
        for conjunct in key:
            keys = self._holders.get(conjunct)
            if keys is None:
                keys = self._holders[conjunct] = {}
                shape = _equality_shape(conjunct)
                if shape is None:
                    self._generic.add(conjunct)
                else:
                    attribute, values = shape
                    self._keys.setdefault(attribute, set()).add(conjunct)
                    buckets = self._buckets.setdefault(attribute, {})
                    for value in values:
                        buckets.setdefault(value, set()).add(conjunct)
            keys[key] = keys.get(key, 0) + 1

    def remove(self, key: FrozenSet[str]) -> None:
        """Record that one store let ``key`` go; a conjunct no held key
        contains any more leaves its buckets."""
        for conjunct in key:
            keys = self._holders[conjunct]
            stores = keys.pop(key) - 1
            if stores:
                keys[key] = stores
            if keys:
                continue
            del self._holders[conjunct]
            shape = _equality_shape(conjunct)
            if shape is None:
                self._generic.discard(conjunct)
                continue
            attribute, values = shape
            self._keys[attribute].discard(conjunct)
            if not self._keys[attribute]:
                del self._keys[attribute], self._buckets[attribute]
                continue
            buckets = self._buckets[attribute]
            for value in values:
                buckets[value].discard(conjunct)
                if not buckets[value]:
                    del buckets[value]

    def live(self, match: RowMatch) -> Set[str]:
        """The held conjuncts some row of ``match`` may match, their
        verdicts left in ``match``: a bucketed attribute's from the bucket
        lookup, every other conjunct's from :meth:`RowMatch.mask`.  A
        mutation with no rows decides nothing."""
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

    def stale(self, match: RowMatch) -> Set[FrozenSet[str]]:
        """The held keys ``match`` may have changed: every conjunct
        :meth:`live` and :meth:`RowMatch.shared` non-zero.  Memoised on
        ``match``, so a sweep's stores share one bucket pass: a key added
        after the first call is not in the set."""
        stale = match._stale.get(self)
        if stale is None:
            live = self.live(match)
            holders = self._holders
            stale = match._stale[self] = {
                key for conjunct in live for key in holders[conjunct]
                if key <= live and match.shared(key)}
        return stale
