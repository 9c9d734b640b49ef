"""A second workload family: the parametric synthetic attribute generator.

Everything before this module ran on one DBLP-shaped dataset with one fixed
skew (see :mod:`repro.workload.dblp`).  This generator produces a family of
datasets whose *statistical shape is the experiment variable*:

* **schema width** — how many extra categorical attributes the joined view
  carries beyond the core ``(venue, year)`` pair.  Both storage engines
  serve a fixed six-column joined view (``pid``/``title``/``venue``/
  ``year``/``abstract``/``aid``), so extra attributes are multiplexed onto
  the free text columns: width 1 turns ``title`` into a queryable
  categorical attribute, width 2 adds ``abstract``.  Every value is drawn
  from a closed, deterministically named domain
  (:func:`attribute_values`), so predicates over the extra attributes can
  be built from the config alone — no database round trip;
* **value skew** — a Zipf exponent per attribute (0 = uniform);
* **correlation** — the probability an extra attribute's value is derived
  from the paper's anchor (venue) value instead of drawn independently,
  so cross-attribute predicates range from independent to lock-step;
* **cardinality** — distinct values per attribute, and the year span.

The output is an ordinary :class:`~repro.workload.dblp.DblpDataset`, so it
flows through the *existing* front doors unchanged — ``load_dataset`` /
``append_papers`` / ``delete_papers`` / ``update_papers``, preference
extraction, both storage backends, the serving stack and the load harness
all run on it exactly as they do on DBLP.  :func:`generate_workload`
dispatches on the config type, which is how the replay driver and the CLI
(``--family synthetic``) pick the family.

Adding a third family takes three steps (see ``docs/WORKLOADS.md``):
a frozen config dataclass with a ``validate()``, a generator returning a
:class:`~repro.workload.dblp.DblpDataset`, and a branch in
:func:`generate_workload`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..exceptions import WorkloadError
from .dblp import (
    Author,
    DblpConfig,
    DblpDataset,
    Paper,
    _zipf_weights,
    generate_dblp,
)

#: Joined-view columns that can carry extra categorical attributes, in the
#: order ``width`` activates them.
EXTRA_COLUMNS: Tuple[str, ...] = ("title", "abstract")

#: Logical names of the extra attributes (value domains derive from these).
EXTRA_NAMES: Tuple[str, ...] = ("topic", "keyword")

#: Maximum schema width: the joined view has exactly two free text columns.
MAX_WIDTH = len(EXTRA_COLUMNS)


@dataclass(frozen=True)
class AttributeSpec:
    """One categorical attribute of the synthetic joined view.

    ``column`` is the physical joined-view column carrying the attribute;
    ``name`` prefixes the deterministic value domain
    (:func:`attribute_values`); ``zipf`` is the value-frequency skew
    exponent (0 = uniform); ``correlation`` is the probability a paper's
    value is *derived from its anchor (venue) value* instead of drawn
    independently — the anchor itself always has correlation 0.
    """

    name: str
    column: str
    cardinality: int
    zipf: float
    correlation: float = 0.0


@dataclass(frozen=True)
class SyntheticConfig:
    """Scale, width, skew and correlation knobs of one synthetic dataset."""

    n_papers: int = 1200
    n_authors: int = 300
    #: Number of extra categorical attributes beyond (venue, year): 0..2.
    width: int = 2
    #: The anchor attribute (carried by the ``venue`` column).
    venue_cardinality: int = 16
    venue_zipf: float = 1.1
    #: The numeric attribute (carried by ``year``); skew favours recent years.
    year_lo: int = 2000
    year_hi: int = 2019
    year_zipf: float = 0.6
    #: Shared knobs of the extra attributes activated by ``width``.
    extra_cardinality: int = 12
    extra_zipf: float = 0.9
    #: Probability an extra attribute's value is venue-derived (0..1).
    correlation: float = 0.0
    max_authors_per_paper: int = 3
    author_zipf: float = 1.05
    max_citations_per_paper: int = 6
    seed: int = 42

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on inconsistent settings."""
        if self.n_papers <= 0 or self.n_authors <= 0:
            raise WorkloadError("n_papers and n_authors must be positive")
        if not 0 <= self.width <= MAX_WIDTH:
            raise WorkloadError(f"width must be between 0 and {MAX_WIDTH}")
        if self.venue_cardinality < 1 or self.extra_cardinality < 1:
            raise WorkloadError("attribute cardinalities must be at least 1")
        if self.year_lo > self.year_hi:
            raise WorkloadError("year_lo must not exceed year_hi")
        if min(self.venue_zipf, self.year_zipf, self.extra_zipf,
               self.author_zipf) < 0:
            raise WorkloadError("zipf exponents must be non-negative")
        if not 0.0 <= self.correlation <= 1.0:
            raise WorkloadError("correlation must be within [0, 1]")
        if self.max_authors_per_paper < 1:
            raise WorkloadError("max_authors_per_paper must be at least 1")
        if self.max_citations_per_paper < 0:
            raise WorkloadError("max_citations_per_paper must be non-negative")


#: The preset scales the CLI's ``--family synthetic`` maps ``--scale`` to
#: (same keys as :data:`repro.experiments.context.SCALES`).
SYNTHETIC_SCALES: Dict[str, SyntheticConfig] = {
    "tiny": SyntheticConfig(n_papers=300, n_authors=100, width=2,
                            venue_cardinality=8, extra_cardinality=6,
                            correlation=0.3, seed=7),
    "small": SyntheticConfig(n_papers=800, n_authors=220, width=2,
                             venue_cardinality=12, extra_cardinality=8,
                             correlation=0.3, seed=11),
    "default": SyntheticConfig(seed=42),
    "large": SyntheticConfig(n_papers=6000, n_authors=1400, width=2,
                             venue_cardinality=24, extra_cardinality=16,
                             correlation=0.4, seed=42),
}


def attribute_specs(config: SyntheticConfig) -> Tuple[AttributeSpec, ...]:
    """The categorical attributes of ``config``, anchor first."""
    specs = [AttributeSpec(name="domain", column="venue",
                           cardinality=config.venue_cardinality,
                           zipf=config.venue_zipf)]
    for position in range(config.width):
        specs.append(AttributeSpec(
            name=EXTRA_NAMES[position], column=EXTRA_COLUMNS[position],
            cardinality=config.extra_cardinality, zipf=config.extra_zipf,
            correlation=config.correlation))
    return tuple(specs)


def attribute_values(spec: AttributeSpec) -> Tuple[str, ...]:
    """The closed, rank-ordered value domain of one attribute.

    Rank 0 is the most frequent value under the spec's Zipf skew.  The
    naming is a pure function of the spec, so profiles and tests can build
    predicates without consulting a generated dataset.
    """
    return tuple(f"{spec.name}-{rank:03d}" for rank in range(spec.cardinality))


def _draw_rank(rng: random.Random, weights: Sequence[float]) -> int:
    return rng.choices(range(len(weights)), weights=weights, k=1)[0]


def generate_synthetic(config: SyntheticConfig = SyntheticConfig()) -> DblpDataset:
    """Generate one deterministic synthetic dataset for ``config``.

    Papers come out in chronological order (citations point backward, like
    the DBLP family); every draw runs off one seeded
    :class:`random.Random`, so a given config always produces the
    byte-identical dataset.
    """
    config.validate()
    rng = random.Random(config.seed)
    dataset = DblpDataset()
    specs = attribute_specs(config)
    anchor = specs[0]
    domains = {spec.name: attribute_values(spec) for spec in specs}
    weights = {spec.name: _zipf_weights(spec.cardinality, spec.zipf)
               for spec in specs}

    author_ids = list(range(1, config.n_authors + 1))
    author_weights = _zipf_weights(len(author_ids), config.author_zipf)
    dataset.authors = [Author(aid=aid, full_name=f"Synthetic Author {aid:04d}")
                       for aid in author_ids]

    # Years skew toward year_hi (recent papers dominate) and are sorted
    # ascending so the citation pass below can point strictly backward.
    year_span = list(range(config.year_hi, config.year_lo - 1, -1))
    year_weights = _zipf_weights(len(year_span), config.year_zipf)
    years = sorted(year_span[_draw_rank(rng, year_weights)]
                   for _ in range(config.n_papers))

    for index, year in enumerate(years, start=1):
        anchor_rank = _draw_rank(rng, weights[anchor.name])
        values = {anchor.column: domains[anchor.name][anchor_rank]}
        for spec in specs[1:]:
            # One uniform draw per extra attribute decides correlated vs
            # independent; a correlated value is the anchor rank folded into
            # this attribute's domain, so equal anchors mean equal extras.
            if rng.random() < spec.correlation:
                rank = anchor_rank % spec.cardinality
            else:
                rank = _draw_rank(rng, weights[spec.name])
            values[spec.column] = domains[spec.name][rank]
        dataset.papers.append(Paper(
            pid=index,
            title=values.get("title", f"Synthetic Paper {index}"),
            venue=values["venue"],
            year=year,
            abstract=values.get("abstract", "")))

    seen_pairs = set()
    for paper in dataset.papers:
        team_size = rng.randint(1, config.max_authors_per_paper)
        team = set()
        while len(team) < team_size:
            team.add(rng.choices(author_ids, weights=author_weights, k=1)[0])
        for aid in sorted(team):
            if (paper.pid, aid) not in seen_pairs:
                seen_pairs.add((paper.pid, aid))
                dataset.paper_authors.append((paper.pid, aid))

    citation_pairs = set()
    for paper in dataset.papers:
        older = paper.pid - 1
        if older <= 0:
            continue
        n_citations = rng.randint(0, config.max_citations_per_paper)
        if n_citations == 0:
            continue
        candidate_ids = list(range(1, older + 1))
        citation_weights = _zipf_weights(len(candidate_ids), exponent=0.8)
        for _ in range(n_citations):
            cited = candidate_ids[_draw_rank(rng, citation_weights)]
            if (paper.pid, cited) not in citation_pairs:
                citation_pairs.add((paper.pid, cited))
                dataset.citations.append((paper.pid, cited))

    return dataset


def dataset_digest(dataset: DblpDataset) -> str:
    """A canonical content hash of every relation of ``dataset``.

    Two datasets are byte-identical exactly when their digests match —
    the determinism property the hypothesis suite pins down.
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


def validate_dataset(config: SyntheticConfig, dataset: DblpDataset) -> None:
    """Check the generator's invariants; raise :class:`WorkloadError` if broken.

    * referential integrity — every author link references an existing
      paper and author, every citation references existing papers and
      points strictly backward (cited pid < citing pid);
    * closed domains — every categorical value belongs to its attribute's
      declared domain, every year to the declared span;
    * declared skew — the Zipf weight sequence behind every attribute is
      monotone non-increasing (strictly decreasing for a positive
      exponent), which is the ordering the rank-named domains promise.
    """
    pids = {paper.pid for paper in dataset.papers}
    aids = {author.aid for author in dataset.authors}
    for pid, aid in dataset.paper_authors:
        if pid not in pids or aid not in aids:
            raise WorkloadError(
                f"dangling author link ({pid}, {aid}) in synthetic dataset")
    for pid, cid in dataset.citations:
        if pid not in pids or cid not in pids:
            raise WorkloadError(
                f"dangling citation ({pid}, {cid}) in synthetic dataset")
        if cid >= pid:
            raise WorkloadError(
                f"citation ({pid}, {cid}) does not point backward")
    domains = {spec.column: set(attribute_values(spec))
               for spec in attribute_specs(config)}
    for paper in dataset.papers:
        if paper.venue not in domains["venue"]:
            raise WorkloadError(f"venue {paper.venue!r} outside its domain")
        if config.width >= 1 and paper.title not in domains["title"]:
            raise WorkloadError(f"title {paper.title!r} outside its domain")
        if config.width >= 2 and paper.abstract not in domains["abstract"]:
            raise WorkloadError(
                f"abstract {paper.abstract!r} outside its domain")
        if not config.year_lo <= paper.year <= config.year_hi:
            raise WorkloadError(f"year {paper.year} outside the declared span")
    for spec in attribute_specs(config):
        weights = _zipf_weights(spec.cardinality, spec.zipf)
        # Strict decrease is only demanded when the exponent is large
        # enough for ``1/(rank+1)**zipf`` to differ in float at all — a
        # denormal-tiny exponent legitimately rounds to equal weights.
        strict = spec.zipf > 1e-9
        for earlier, later in zip(weights, weights[1:]):
            if later > earlier or (strict and later >= earlier):
                raise WorkloadError(
                    f"declared skew of {spec.name!r} is not monotone")


def synthetic_profile_factory(
        config: SyntheticConfig) -> Callable[[int, Sequence[str], int, int], Any]:
    """A population profile factory exercising the extra attributes.

    The returned callable matches the ``profile_factory`` hook of
    :func:`repro.loadgen.build_world`, ``(uid, venues, lo, hi) ->
    UserProfile``: two rotating venue likes plus a narrow year band (the
    default :func:`~repro.loadgen.initial_profile` shape), and — for each
    extra attribute ``width`` activates — one equality predicate over that
    attribute's deterministic value domain, rotating with the uid.  With
    zero width it degenerates to the default profile shape.
    """
    config.validate()
    specs = attribute_specs(config)[1:]
    domains = [attribute_values(spec) for spec in specs]

    def build(uid: int, venues: Sequence[str], lo: int, hi: int) -> Any:
        from ..core.preference import UserProfile
        profile = UserProfile(uid=uid)
        first = venues[uid % len(venues)]
        second = venues[(uid * 5 + 2) % len(venues)]
        profile.add_quantitative(_equality_sql("venue", first), 0.9)
        if second != first:
            profile.add_quantitative(_equality_sql("venue", second), 0.7)
        span = max(1, hi - lo - 1)
        start = lo + (uid % span)
        profile.add_quantitative(
            f"dblp.year >= {start} AND dblp.year <= {start + 1}", 0.5)
        for spec, domain in zip(specs, domains):
            value = domain[(uid * 3 + 1) % len(domain)]
            profile.add_quantitative(_equality_sql(spec.column, value), 0.6)
        return profile

    return build


def _equality_sql(column: str, value: str) -> str:
    quoted = value.replace("'", "''")
    return f"dblp.{column} = '{quoted}'"


def generate_workload(config: Any) -> DblpDataset:
    """Generate the dataset for any known workload-family config.

    Dispatches on the config type: :class:`~repro.workload.dblp.DblpConfig`
    runs the DBLP family, :class:`SyntheticConfig` this module's family.
    Every consumer that builds a world from a config —
    :func:`repro.loadgen.build_world`,
    :func:`repro.workload.loader.build_workload_database`, the CLI — goes
    through here, so a third family plugs into the whole stack by adding
    one branch.
    """
    if isinstance(config, SyntheticConfig):
        return generate_synthetic(config)
    if isinstance(config, DblpConfig):
        return generate_dblp(config)
    raise WorkloadError(
        f"unknown workload config type {type(config).__name__!r}; "
        f"expected DblpConfig or SyntheticConfig")
