"""Quickstart: store hybrid preferences, build the HYPRE graph, rank results.

Run with::

    python examples/quickstart.py

The script walks through the core workflow of the library:

1. create a user profile mixing quantitative and qualitative preferences
   (the running example of paper Section 3.3),
2. build the HYPRE preference graph — qualitative preferences are converted
   into quantitative ones via the intensity functions,
3. load a small synthetic DBLP workload into SQLite,
4. enhance a query with the user's preferences and print the Top-10 papers
   ordered by combined intensity.
"""

from __future__ import annotations

from repro import (
    Database,
    PEPSAlgorithm,
    PreferenceQueryRunner,
    UserProfile,
    build_hypre_graph,
    preferences_from_graph,
)
from repro.sqldb.enhancer import enhance_query
from repro.workload import DblpConfig, generate_dblp, load_dataset


def build_profile() -> UserProfile:
    """The Section 3.3 example profile: papers by year/venue preferences."""
    profile = UserProfile(uid=1)
    # Quantitative preferences: a predicate plus a score in [-1, 1].
    profile.add_quantitative("dblp.year >= 2000 AND dblp.year <= 2005", 0.3)
    profile.add_quantitative("dblp.year >= 2005 AND dblp.year <= 2009", 0.5)
    profile.add_quantitative("dblp.year >= 2009", 0.8)
    profile.add_quantitative("dblp.venue = 'INFOCOM'", -1.0)  # negative preference
    # Qualitative preferences: left predicate preferred over right, with a strength.
    profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.year >= 2009", 0.2)
    profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'SIGMOD'", 0.3)
    return profile


def main() -> None:
    profile = build_profile()
    print(f"Profile: {len(profile.quantitative)} quantitative, "
          f"{len(profile.qualitative)} qualitative preferences")

    # 1. Build the HYPRE graph: qualitative preferences become scored nodes.
    hypre, report = build_hypre_graph(profile)
    print(f"HYPRE graph: {len(hypre.user_node_ids(1))} preference nodes "
          f"({report.intensities_computed} intensities computed, "
          f"{report.defaults_assigned} defaults assigned)")
    print("\nConverted quantitative preferences (ordered by intensity):")
    for predicate, intensity in hypre.quantitative_preferences(1):
        print(f"  {intensity:+.3f}  {predicate}")

    # 2. Load a small synthetic DBLP workload.
    dataset = generate_dblp(DblpConfig(n_papers=400, n_authors=150, n_venues=10, seed=3))
    db = Database(":memory:")
    load_dataset(db, dataset)
    print(f"\nWorkload: {db.total_papers()} papers, "
          f"{db.distinct_count('dblp', 'venue')} venues")

    # 3. Enhance the base query with the graph's preferences (mixed clause).
    preferences = preferences_from_graph(hypre, 1)
    enhanced = enhance_query([(pref.sql, pref.intensity) for pref in preferences],
                             columns=["DISTINCT dblp.pid"])
    print("\nEnhanced query:")
    print(f"  {enhanced.sql}")
    print(f"  parameters = {enhanced.parameters}")
    print(f"  combined intensity = {enhanced.combined_intensity:.3f}")

    # 4. Top-10 papers by combined intensity (PEPS).
    runner = PreferenceQueryRunner(db)
    peps = PEPSAlgorithm(runner, preferences)
    print("\nTop-10 papers (pid, combined intensity):")
    papers = {paper.pid: paper for paper in dataset.papers}
    for pid, intensity in peps.top_k(10):
        paper = papers[pid]
        print(f"  {intensity:.3f}  [{paper.venue} {paper.year}] {paper.title}")

    db.close()


if __name__ == "__main__":
    main()
