"""Synthetic DBLP-like citation network generator.

The dissertation evaluates on the DBLP-Citation-network V4 dataset
(1.6M papers, 1M authors).  That dataset is not redistributable here, so this
module generates a *statistically similar* workload at configurable scale:

* a skewed venue distribution (a few venues publish most papers),
* skewed author productivity (a few authors write many papers, most write
  few) with 1–5 authors per paper,
* skewed citation in-degree (recent papers cite older papers, famous papers
  collect most citations),
* a year range covering several decades.

Everything is driven by a seeded :class:`random.Random`, so a given
:class:`DblpConfig` always produces the same dataset — which is what makes
the experiment harness reproducible.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from ..exceptions import WorkloadError

#: Venue names used by the generator; weights make the first ones dominant.
DEFAULT_VENUES: Tuple[str, ...] = (
    "VLDB", "SIGMOD", "PVLDB", "ICDE", "PODS", "CIKM", "EDBT", "TKDE",
    "INFOCOM", "SIGIR", "KDD", "WWW", "ICDM", "WSDM", "CIDR", "DASFAA",
    "SSDBM", "MDM", "DEXA", "ADBIS", "SIGCOMM", "NSDI", "OSDI", "SOSP",
    "EuroSys", "ATC", "FAST", "SoCC", "Middleware", "ICDCS", "PODC", "SPAA",
    "VLDBJ", "TODS", "TKDD", "JACM",
)

_TITLE_NOUNS = (
    "Queries", "Indexes", "Joins", "Streams", "Graphs", "Skylines", "Views",
    "Transactions", "Caches", "Rankings", "Preferences", "Workloads",
    "Networks", "Cubes", "Schemas", "Partitions",
)
_TITLE_ADJECTIVES = (
    "Adaptive", "Scalable", "Distributed", "Efficient", "Incremental",
    "Personalized", "Approximate", "Parallel", "Robust", "Semantic",
    "Top-K", "Hybrid", "Context-Aware", "Declarative",
)
_TITLE_VERBS = (
    "Processing", "Optimizing", "Ranking", "Materializing", "Mining",
    "Evaluating", "Indexing", "Summarizing", "Personalizing", "Partitioning",
)

_FIRST_NAMES = (
    "Alex", "Bianca", "Carlos", "Dana", "Elena", "Felix", "Grace", "Hiro",
    "Ioana", "Jorge", "Katya", "Liang", "Mara", "Nikos", "Omar", "Petra",
    "Quentin", "Radu", "Sofia", "Tomas", "Uma", "Vera", "Wei", "Xenia",
    "Yusuf", "Zoe",
)
_LAST_NAMES = (
    "Anders", "Bogdan", "Chen", "Dimitrov", "Eriksson", "Fischer", "Garcia",
    "Hansen", "Ionescu", "Jansen", "Kumar", "Lopez", "Moreau", "Nakamura",
    "Olsen", "Popescu", "Qureshi", "Rossi", "Schmidt", "Tanaka", "Ueda",
    "Vasquez", "Wagner", "Xu", "Yamada", "Zhang",
)


@dataclass(frozen=True)
class DblpConfig:
    """Scale and skew knobs for the synthetic citation network."""

    n_papers: int = 2000
    n_authors: int = 600
    n_venues: int = 24
    min_year: int = 1995
    max_year: int = 2013
    max_authors_per_paper: int = 4
    max_citations_per_paper: int = 8
    seed: int = 42

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on inconsistent settings."""
        if self.n_papers <= 0 or self.n_authors <= 0:
            raise WorkloadError("n_papers and n_authors must be positive")
        if not 1 <= self.n_venues <= len(DEFAULT_VENUES):
            raise WorkloadError(
                f"n_venues must be between 1 and {len(DEFAULT_VENUES)}")
        if self.min_year > self.max_year:
            raise WorkloadError("min_year must not exceed max_year")
        if self.max_authors_per_paper < 1:
            raise WorkloadError("max_authors_per_paper must be at least 1")
        if self.max_citations_per_paper < 0:
            raise WorkloadError("max_citations_per_paper must be non-negative")


@dataclass(frozen=True)
class Paper:
    """One row of the ``dblp`` relation."""

    pid: int
    title: str
    venue: str
    year: int
    abstract: str = ""


@dataclass(frozen=True)
class Author:
    """One row of the ``author`` relation."""

    aid: int
    full_name: str


@dataclass
class DblpDataset:
    """The generated citation network, mirroring the four relational tables."""

    papers: List[Paper] = field(default_factory=list)
    authors: List[Author] = field(default_factory=list)
    paper_authors: List[Tuple[int, int]] = field(default_factory=list)
    citations: List[Tuple[int, int]] = field(default_factory=list)

    # -- convenience views ------------------------------------------------------

    def authors_of(self) -> Dict[int, List[int]]:
        """Mapping ``pid -> [aid]``."""
        mapping: Dict[int, List[int]] = {}
        for pid, aid in self.paper_authors:
            mapping.setdefault(pid, []).append(aid)
        return mapping

    def papers_of(self) -> Dict[int, List[int]]:
        """Mapping ``aid -> [pid]``."""
        mapping: Dict[int, List[int]] = {}
        for pid, aid in self.paper_authors:
            mapping.setdefault(aid, []).append(pid)
        return mapping

    def cited_by(self) -> Dict[int, List[int]]:
        """Mapping ``pid -> [cited pid]``."""
        mapping: Dict[int, List[int]] = {}
        for pid, cid in self.citations:
            mapping.setdefault(pid, []).append(cid)
        return mapping

    def venues(self) -> List[str]:
        """Distinct venue names present in the dataset."""
        return sorted({paper.venue for paper in self.papers})

    def statistics(self) -> Dict[str, int]:
        """Cardinality summary equivalent to the paper's Table 10."""
        return {
            "papers": len(self.papers),
            "authors": len(self.authors),
            "citation_entries": len(self.citations),
            "distinct_cited_papers": len({cid for _, cid in self.citations}),
            "dblp_author_entries": len(self.paper_authors),
            "venues": len(self.venues()),
        }


def _zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    """Zipf-like weights ``1 / rank^exponent`` for ``count`` items."""
    return [1.0 / ((rank + 1) ** exponent) for rank in range(count)]


def _make_title(rng: random.Random) -> str:
    return (f"{rng.choice(_TITLE_ADJECTIVES)} {rng.choice(_TITLE_VERBS)} "
            f"of {rng.choice(_TITLE_NOUNS)}")


def _make_author_name(rng: random.Random, aid: int) -> str:
    first = rng.choice(_FIRST_NAMES)
    last = rng.choice(_LAST_NAMES)
    return f"{first} {last} {aid:04d}"


def generate_dblp(config: DblpConfig = DblpConfig()) -> DblpDataset:
    """Generate a deterministic synthetic citation network for ``config``."""
    config.validate()
    rng = random.Random(config.seed)
    dataset = DblpDataset()

    # Every weighted draw below bisects a cumulative-weight vector built
    # once; ``rng.choices(..., weights=)`` would re-accumulate it per draw.
    venues = list(DEFAULT_VENUES[: config.n_venues])
    venue_cum = list(accumulate(_zipf_weights(len(venues))))
    author_ids = list(range(1, config.n_authors + 1))
    author_cum = list(accumulate(_zipf_weights(len(author_ids))))

    dataset.authors = [Author(aid=aid, full_name=_make_author_name(rng, aid))
                       for aid in author_ids]

    # Papers, in chronological order so citations can point backwards.
    years = sorted(rng.randint(config.min_year, config.max_year)
                   for _ in range(config.n_papers))
    for index, year in enumerate(years, start=1):
        venue = rng.choices(venues, cum_weights=venue_cum, k=1)[0]
        dataset.papers.append(Paper(
            pid=index,
            title=_make_title(rng),
            venue=venue,
            year=year,
            abstract=f"Synthetic abstract for paper {index}.",
        ))

    # Authorship: 1..max authors per paper, productivity skewed by rank.
    seen_pairs = set()
    for paper in dataset.papers:
        team_size = rng.randint(1, config.max_authors_per_paper)
        team = set()
        while len(team) < team_size:
            aid = rng.choices(author_ids, cum_weights=author_cum, k=1)[0]
            team.add(aid)
        for aid in sorted(team):
            if (paper.pid, aid) not in seen_pairs:
                seen_pairs.add((paper.pid, aid))
                dataset.paper_authors.append((paper.pid, aid))

    # Citations: papers cite older papers; popular (early, low-pid) papers
    # attract more citations via a rank-skewed choice.  One Zipf(0.8) vector
    # serves every citing paper: the weights of a paper's ``older``
    # candidates are its first ``older`` entries, and a running sum's prefix
    # is the prefix's running sum.
    citation_cum = list(accumulate(_zipf_weights(config.n_papers, exponent=0.8)))
    citation_pairs = set()
    for paper in dataset.papers:
        older = paper.pid - 1
        if older <= 0:
            continue
        n_citations = rng.randint(0, config.max_citations_per_paper)
        if n_citations == 0:
            continue
        total = citation_cum[older - 1]
        for _ in range(n_citations):
            # ``rng.choices(range(1, older + 1), weights=...)`` without the
            # per-paper vectors: the same one ``random()`` per draw, bisected
            # within the prefix exactly as ``choices`` does.
            cited = 1 + bisect(citation_cum, rng.random() * total, 0, older - 1)
            if (paper.pid, cited) not in citation_pairs and cited != paper.pid:
                citation_pairs.add((paper.pid, cited))
                dataset.citations.append((paper.pid, cited))

    return dataset


def dataset_digest(dataset: DblpDataset) -> str:
    """A canonical content hash of every relation of ``dataset``.

    Two datasets are byte-identical exactly when their digests match.
    """
    digest = hashlib.sha256()
    for paper in dataset.papers:
        digest.update(repr((paper.pid, paper.title, paper.venue, paper.year,
                            paper.abstract)).encode())
    for author in dataset.authors:
        digest.update(repr((author.aid, author.full_name)).encode())
    digest.update(repr(dataset.paper_authors).encode())
    digest.update(repr(dataset.citations).encode())
    return digest.hexdigest()


def small_dataset(seed: int = 7) -> DblpDataset:
    """A tiny dataset (fast to load) used by unit tests and the quickstart."""
    return generate_dblp(DblpConfig(n_papers=300, n_authors=120, n_venues=8, seed=seed))


def default_dataset(seed: int = 42) -> DblpDataset:
    """The default experiment-scale dataset used by the benchmark harness."""
    return generate_dblp(DblpConfig(seed=seed))
