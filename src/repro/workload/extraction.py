"""Preference extraction from the citation network (paper Section 6.2).

Every author of the dataset doubles as a *user*; their publication and
citation behaviour is mined into a preference profile:

* **Venue preference** (quantitative) — the user's Top-5 publication venues,
  intensity = papers in the venue / papers in all Top-5 venues.
* **Author preference** (quantitative) — authors the user cites, intensity =
  citations of that author / total papers cited; preferences below a
  threshold (default 0.1) are dropped from the quantitative set but still
  feed the qualitative extraction, exactly as in the paper.
* **Negative venue preference** (quantitative) — venues the user never
  published in although cited authors publish there heavily; intensity =
  ``-(user's intensity for the cited author) * (that author's intensity for
  the venue)``.
* **Qualitative preferences** — consecutive pairs of the ordered author (and
  venue) preferences; intensity = the difference of the two quantitative
  intensities.  Negative differences are resolved by the model's
  normalisation rule (Proposition 7).

The extractor works on the in-memory :class:`DblpDataset` views rather than
per-user SQL so whole-population extraction (Figure 17) stays fast.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.preference import ProfileRegistry, UserProfile
from ..exceptions import ExtractionError
from .dblp import DblpDataset


@dataclass(frozen=True)
class ExtractionConfig:
    """Tuning knobs for preference extraction."""

    top_venues: int = 5
    min_author_intensity: float = 0.1
    include_negative: bool = True
    include_qualitative: bool = True
    max_negative_per_author: int = 2


def venue_predicate(venue: str) -> str:
    """Predicate selecting papers published in ``venue``."""
    escaped = venue.replace("'", "''")
    return f"dblp.venue = '{escaped}'"


def author_predicate(aid: int) -> str:
    """Predicate selecting papers (co-)authored by ``aid``."""
    return f"dblp_author.aid = {int(aid)}"


class PreferenceExtractor:
    """Mines user profiles out of a :class:`DblpDataset`."""

    def __init__(self, dataset: DblpDataset,
                 config: ExtractionConfig = ExtractionConfig()) -> None:
        self.dataset = dataset
        self.config = config
        self._papers_by_author = dataset.papers_of()
        self._authors_by_paper = dataset.authors_of()
        self._citations_by_paper = dataset.cited_by()
        self._venue_by_paper = {paper.pid: paper.venue for paper in dataset.papers}
        # Read ``dataset.authors`` once: a per-profile scan made mining
        # quadratic in the number of authors.
        self._author_ids = tuple(author.aid for author in dataset.authors)
        self._known_authors = frozenset(self._author_ids)
        self._venue_intensities_cache: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Quantitative extraction
    # ------------------------------------------------------------------

    def venue_intensities(self, uid: int) -> Dict[str, float]:
        """Top-venue intensities for ``uid`` (venue -> intensity)."""
        if uid in self._venue_intensities_cache:
            return self._venue_intensities_cache[uid]
        papers = self._papers_by_author.get(uid, [])
        counts = Counter(self._venue_by_paper[pid] for pid in papers
                         if pid in self._venue_by_paper)
        top = counts.most_common(self.config.top_venues)
        total = sum(count for _, count in top)
        intensities = ({venue: count / total for venue, count in top}
                       if total > 0 else {})
        self._venue_intensities_cache[uid] = intensities
        return intensities

    def author_intensities(self, uid: int) -> Dict[int, float]:
        """Cited-author intensities for ``uid`` (author id -> intensity)."""
        papers = self._papers_by_author.get(uid, [])
        cited_papers: List[int] = []
        for pid in papers:
            cited_papers.extend(self._citations_by_paper.get(pid, []))
        if not cited_papers:
            return {}
        counts: Counter[int] = Counter()
        for cited in cited_papers:
            for aid in self._authors_by_paper.get(cited, []):
                if aid != uid:
                    counts[aid] += 1
        total = len(cited_papers)
        return {aid: count / total for aid, count in counts.items()}

    def negative_venue_intensities(self, uid: int,
                                   author_scores: Dict[int, float]) -> Dict[str, float]:
        """Negative intensities for venues the user avoids but cited authors use."""
        own_venues = set(self.venue_intensities(uid))
        negatives: Dict[str, float] = {}
        for aid, author_intensity in author_scores.items():
            if author_intensity <= 0.0:
                continue
            taken = 0
            for venue, venue_intensity in sorted(self.venue_intensities(aid).items(),
                                                 key=lambda item: -item[1]):
                if venue in own_venues:
                    continue
                value = -author_intensity * venue_intensity
                if venue not in negatives or value < negatives[venue]:
                    negatives[venue] = value
                taken += 1
                if taken >= self.config.max_negative_per_author:
                    break
        return negatives

    # ------------------------------------------------------------------
    # Profile assembly
    # ------------------------------------------------------------------

    def extract_profile(self, uid: int) -> UserProfile:
        """Extract the full profile (quantitative + qualitative) for one user."""
        if uid not in self._known_authors:
            raise ExtractionError(f"unknown author/user id {uid}")
        profile = UserProfile(uid=uid)
        config = self.config

        venue_scores = self.venue_intensities(uid)
        for venue, intensity in sorted(venue_scores.items(), key=lambda item: -item[1]):
            profile.add_quantitative(venue_predicate(venue), intensity)

        author_scores = self.author_intensities(uid)
        kept_authors = {aid: intensity for aid, intensity in author_scores.items()
                        if intensity >= config.min_author_intensity}
        for aid, intensity in sorted(kept_authors.items(), key=lambda item: -item[1]):
            profile.add_quantitative(author_predicate(aid), min(intensity, 1.0))

        if config.include_negative:
            negatives = self.negative_venue_intensities(uid, author_scores)
            for venue, intensity in sorted(negatives.items()):
                if venue in venue_scores:
                    continue
                profile.add_quantitative(venue_predicate(venue), max(intensity, -1.0))

        if config.include_qualitative:
            self._add_qualitative(profile, venue_scores, author_scores)
        return profile

    def _add_qualitative(self, profile: UserProfile,
                         venue_scores: Dict[str, float],
                         author_scores: Dict[int, float]) -> None:
        """Consecutive-pair qualitative preferences over authors and venues."""
        ordered_authors = sorted(author_scores.items(), key=lambda item: (-item[1], item[0]))
        for (aid_left, left), (aid_right, right) in zip(ordered_authors, ordered_authors[1:]):
            profile.add_qualitative(
                author_predicate(aid_left), author_predicate(aid_right),
                max(0.0, min(1.0, left - right)))
        ordered_venues = sorted(venue_scores.items(), key=lambda item: (-item[1], item[0]))
        for (venue_left, left), (venue_right, right) in zip(ordered_venues, ordered_venues[1:]):
            profile.add_qualitative(
                venue_predicate(venue_left), venue_predicate(venue_right),
                max(0.0, min(1.0, left - right)))

    def extract_all(self, uids: Optional[Iterable[int]] = None,
                    skip_empty: bool = True) -> ProfileRegistry:
        """Extract profiles for ``uids`` (default: every author)."""
        registry = ProfileRegistry()
        if uids is None:
            uids = self._author_ids
        for uid in uids:
            profile = self.extract_profile(uid)
            if skip_empty and profile.is_empty():
                continue
            registry.add(profile)
        return registry

    # ------------------------------------------------------------------
    # Population statistics (Figure 17)
    # ------------------------------------------------------------------

    def preference_count_distribution(self,
                                      registry: Optional[ProfileRegistry] = None
                                      ) -> Dict[int, int]:
        """Histogram ``number of preferences -> number of users`` (Figure 17)."""
        if registry is None:
            registry = self.extract_all()
        histogram: Dict[int, int] = defaultdict(int)
        for profile in registry:
            histogram[len(profile)] += 1
        return dict(sorted(histogram.items()))


def richest_users(registry: ProfileRegistry, count: int = 2) -> List[int]:
    """User ids with the largest profiles (the paper's uid=2 / uid=38437 stand-ins)."""
    ranked = sorted(registry, key=lambda profile: (-len(profile), profile.uid))
    return [profile.uid for profile in ranked[:count]]
