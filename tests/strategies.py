"""The one value strategy: every Hypothesis arm draws its values here.

An answer stays exact only while every judge of ``attr <op> literal``
(``Condition.evaluate``, ``_equality_keys``, ``ConjunctIndex``'s buckets, the
columnar engine) applies SQLite's rule to every literal a profile can stage,
so every arm draws from one set: text (numeric-shaped included), int (past
2**53, and past int64 as a literal only), full-precision float, bool, NULL,
NaN and ±inf (stored values only: no :class:`Condition` accepts one),
qualified and bare names, conditions, predicates and conjunct texts.
:func:`pools` draws a few distinct values to sample from, so an arm over a
wide strategy still draws ties, duplicates and matching rows.  The oracle
helpers more than one arm reads live here too.
"""

from __future__ import annotations

import math
import re

from hypothesis import strategies as st

from repro.core.predicate import Condition, conjunction, disjunction
from repro.serving.results import BOUND_MARGIN

#: Each column of the joined view the arms draw over -> its spellings (the
#: bare one last).
ATTRIBUTES = {"venue": ("dblp.venue", "venue"),
              "title": ("dblp.title", "title"),
              "year": ("dblp.year", "year"),
              "aid": ("dblp_author.aid", "aid")}

#: Text that is and is not numeric-shaped under SQLite's affinity grammar,
#: the texts SQLite renders the REALs of :data:`HUGE_INTS` as among them.
TEXTS = ("VLDB", "abc", "nan", "inf", "NULL", "True", "1_0", "0", "1", "5",
         " 5 ", " 7 ", "007", "1.0", "5.0", "100", "1000", "2005", "1e2",
         "1e3", "1.0e+16", "-0.0", "9007199254740993", "9007199254740992.0",
         "0.3", "0.30000000000000004", "1.18059162071741e+21",
         "-1.18059162071741e+21", "9.22337203685478e+18")
#: Ints SQLite stores as INTEGER: small ones, 2**53 + 1, the int64 maximum.
INTS = (0, 1, 5, 7, 100, 1000, 2005, -3, 2 ** 53 + 1, 2 ** 63 - 1)
#: Ints past int64: SQLite reads such an inline literal as a REAL, and
#: cannot store one.
HUGE_INTS = (2 ** 63, 2 ** 70, -(2 ** 70))
#: Floats whose text or twin matters: ``0.1 + 0.2`` has 17 significant
#: digits (SQLite 3.40's TEXT affinity renders it ``'0.3'``), ``-0.0``
#: renders ``'0.0'``, ``2.0 ** 53`` equals an int.
FLOATS = (0.5, 1.0, 5.0, 7.5, 100.0, 1000.0, 2005.0, 2.0 ** 53, 1e16, -0.0,
          0.1 + 0.2, 1 / 3)
NON_FINITE = (math.nan, math.inf, -math.inf)
#: Intensities that make ties and edges: ``1 − 0.5 · 0.5 = 0.75`` is a
#: score on the grid, 1.0 scores 1 whatever else matches.
GRID = (-1.0, -0.5, -0.25, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
#: Texts that do not parse as a predicate.
UNPARSABLE = ("dblp.venue = ", "AND", "dblp.year >>= 3")

texts = st.one_of(st.sampled_from(TEXTS),
                  st.text(alphabet="0127.e+- abn", max_size=4))
ints = st.one_of(st.sampled_from(INTS), st.integers(-5, 2100))
floats = st.one_of(st.sampled_from(FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
#: A value a column stores and a literal may state.
values = st.one_of(texts, ints, floats, st.booleans())
#: Every literal a :class:`Condition` accepts.
literals = st.one_of(values, st.sampled_from(HUGE_INTS), st.none())
#: Every value a mutation row may carry for an attribute.
stored = st.one_of(values, st.none(), st.sampled_from(NON_FINITE))

names = st.sampled_from([name for spellings in ATTRIBUTES.values()
                         for name in spellings])
RANGES = ("!=", "<", "<=", ">", ">=")


def intensities(low=0.0, high=1.0):
    """An intensity in ``[low, high]``: often on :data:`GRID`, else any."""
    return st.one_of(st.sampled_from([value for value in GRID
                                      if low <= value <= high]),
                     st.floats(min_value=low, max_value=high))


def pools(strategy, min_size=1, max_size=4):
    """A few distinct values of ``strategy`` to sample from."""
    return st.lists(strategy, min_size=min_size, max_size=max_size,
                    unique_by=repr)


def conditions(values=literals, ops=("=", "IN") + RANGES):
    """An ``attr <op> literal`` condition; ``=`` drawn as often as the rest
    (an ``IN`` lists one to three literals)."""
    drawn = [st.builds(Condition, names, st.sampled_from(
        [op for op in ops if op != "IN"]), values)]
    if "=" in ops:
        drawn.append(st.builds(Condition, names, st.just("="), values))
    if "IN" in ops:
        drawn.append(st.builds(Condition, names, st.just("IN"),
                               st.lists(values, min_size=1, max_size=3)))
    return st.one_of(drawn)


def predicates(values=literals):
    """A condition, or an ``AND`` / ``OR`` of two."""
    one = conditions(values)
    return st.one_of(
        one, one,
        st.builds(lambda first, second: conjunction([first, second]), one, one),
        st.builds(lambda first, second: disjunction([first, second]), one, one))


def conjunct_texts():
    """A held conjunct key's text, as a store renders it: mostly a
    condition, now and then an ``OR`` of two."""
    one = conditions()
    return st.one_of(one, one, st.builds(
        lambda first, second: disjunction([first, second]), one, one)
    ).map(lambda expr: expr.to_sql())


def spellings(text):
    """``text`` as rendered, or with no space around its first comparison
    (``dblp.venue='VLDB'``): one predicate, two staged texts."""
    return st.sampled_from((text, re.sub(" ([<>!]?=|[<>]) ", r"\1", text,
                                         count=1)))


#: A row value of a type no column stores: its attribute is evaluated.
ODD_VALUE = b"5"
_ABSENT = object()


@st.composite
def rows(draw, values=stored, absent=True, odd=False):
    """A joined-view row: each attribute absent (when ``absent``), or under
    one spelling holding a drawn value (or :data:`ODD_VALUE`, when
    ``odd``)."""
    row = {"pid": draw(st.integers(min_value=1, max_value=6))}
    choices = [values] + [st.just(_ABSENT)] * absent + [st.just(ODD_VALUE)] * odd
    for spellings_ in ATTRIBUTES.values():
        value = draw(st.one_of(choices))
        if value is not _ABSENT:
            row[draw(st.sampled_from(spellings_))] = value
    return row


# -- oracle helpers ------------------------------------------------------------


def held_keys(index):
    """Each key a ``ConjunctIndex`` holds -> how many stores hold it."""
    return {key: stores for keys in index._holders.values()
            for key, stores in keys.items()}


def bound_state(cache):
    """What a result cache's score bound reads, recomputed from its
    entries and bases: each conjunct key's holders with ``Π(1 − i)`` over
    their positive preferences on it, the buffer pid index and each key's
    spare threshold — its floor less the margin, or ``-inf`` when the bound
    may not spare it."""
    held, pids, thresholds = {}, {}, {}
    for key, entry in {**cache._entries, **cache._bases}.items():
        for conjuncts, intensity in zip(entry.conjuncts, entry.intensities):
            holders = held.setdefault(conjuncts, {})
            holders[key] = holders.get(key, 1.0) * (
                1.0 - intensity if intensity > 0.0 else 1.0)
        for pid, _ in entry.buffer:
            pids.setdefault(pid, set()).add(key)
        thresholds[key] = (
            -math.inf if entry.complete or len(entry.buffer) < max(entry.k, 1)
            else entry.buffer[-1][1] - BOUND_MARGIN)
    return held, pids, thresholds


def cache_bound_state(cache):
    """The structures :func:`bound_state` recomputes, as the cache keeps
    them."""
    return cache._factors, cache._pids, cache._thresholds
