"""Brute-force Top-K oracle, independent of PEPS, the pair index and every cache.

A fresh ``HypreGraphBuilder`` is built from the staged profile, its positive
preferences are evaluated predicate by predicate on ``db.joined_rows()``, the
matched intensities are folded with ``combine_and``; a served ranking is
correct when it is a Top-K of those scores.  A tuple matches a predicate when
any of its joined rows does.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Set, Tuple

from repro import HypreGraphBuilder, combine_and, preferences_from_graph
from repro.workload import read_profiles

SCORE_DIGITS = 9


class Oracle:
    """Snapshot of the relation at one quiesced checkpoint."""

    def __init__(self, db: Any) -> None:
        self._db = db
        self._rows = db.joined_rows()
        self._matches: Dict[str, Set[int]] = {}

    def _matching_pids(self, preference: Any) -> Set[int]:
        key = preference.sql
        if key not in self._matches:
            predicate = preference.predicate
            # A predicate's verdict depends only on the attributes it names:
            # evaluate once per distinct projection instead of once per row.
            columns = sorted({attribute.split(".")[-1]
                              for attribute in predicate.attributes()})
            verdicts: Dict[Tuple[Any, ...], bool] = {}
            pids: Set[int] = set()
            for row in self._rows:
                values = tuple(row[column] for column in columns)
                verdict = verdicts.get(values)
                if verdict is None:
                    verdict = verdicts[values] = bool(
                        predicate.evaluate(dict(zip(columns, values))))
                if verdict:
                    pids.add(row["pid"])
            self._matches[key] = pids
        return self._matches[key]

    def scores(self, uid: int) -> Dict[int, float]:
        """Exact score of every tuple ``uid``'s positive preferences cover."""
        registry = read_profiles(self._db, [uid])
        builder = HypreGraphBuilder()
        builder.build_profile(registry.get(uid))
        matched: Dict[int, List[float]] = {}
        for preference in preferences_from_graph(builder.hypre, uid):
            for pid in self._matching_pids(preference):
                matched.setdefault(pid, []).append(preference.intensity)
        return {pid: combine_and(values) for pid, values in matched.items()}


def rounded(ranking: Sequence[Tuple[int, float]]) -> List[Tuple[int, float]]:
    return [(int(pid), round(float(score), SCORE_DIGITS)) for pid, score in ranking]


def agrees(served: Sequence[Tuple[int, float]], scores: Mapping[int, float],
           k: int) -> bool:
    """Whether ``served`` is a correct Top-``k`` of the tuples in ``scores``.

    Scores are compared to 9 places.  The program breaks ties by pid on the
    exact floats; tuples whose scores agree to 9 places but differ in the
    last bits may therefore come in either order, and are accepted so.
    """
    served = rounded(served)
    best = sorted((round(score, SCORE_DIGITS) for score in scores.values()),
                  reverse=True)[:k]
    return ([score for _, score in served] == best
            and len({pid for pid, _ in served}) == len(served)
            and all(pid in scores and round(scores[pid], SCORE_DIGITS) == score
                    for pid, score in served))


def wrong_answers(server: Any, oracle: Oracle, uids: Sequence[int], k: int) -> int:
    """Number of ``uids`` whose served ranking disagrees with the oracle."""
    return sum(not agrees(server.top_k(uid, k).ranking, oracle.scores(uid), k)
               for uid in uids)
