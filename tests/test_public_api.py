"""Tests for the top-level package surface and cross-module integration."""

from __future__ import annotations

import pytest

import repro
from repro import (
    Database,
    PEPSAlgorithm,
    PreferenceQueryRunner,
    UserProfile,
    build_hypre_graph,
    preferences_from_graph,
)
from repro.exceptions import ReproError, IntensityRangeError, TopKError
from repro.workload import DblpConfig, generate_dblp, load_dataset


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_graph_event_bus_and_second_pair_index_are_gone(self):
        """One way to build a user's graph: nothing is left to subscribe to."""
        import repro.algorithms as algorithms
        import repro.core.hypre as hypre
        import repro.index as index

        removed = {"GraphMutation", "PairwiseCombinationIndex",
                   "IndexedPreference", "NODE_INSERTED", "NODES_MERGED",
                   "EDGE_INSERTED", "INTENSITY_CHANGED"}
        for module in (repro, algorithms, hypre, index):
            assert not removed & set(module.__all__), module.__name__
            assert not removed & set(vars(module)), module.__name__
        assert not hasattr(hypre, "events")
        for name in ("subscribe", "unsubscribe", "notify"):
            assert not hasattr(repro.HypreGraph, name)
        assert not hasattr(PEPSAlgorithm, "for_graph_user")

    def test_graph_engine_is_gone_and_hypre_signatures_are_pinned(self):
        """One graph layer: ``HypreGraph`` owns its nodes and edges, no options."""
        import importlib
        import inspect

        import repro.core as core
        import repro.core.hypre as hypre

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.graphstore")
        for module in (repro, core, hypre):
            assert "PropertyGraph" not in module.__all__, module.__name__
            assert not hasattr(module, "PropertyGraph"), module.__name__
        assert not hasattr(repro.HypreGraph(), "graph")

        builder = repro.HypreGraphBuilder
        pinned = {
            repro.HypreGraph: [],
            builder.build_profile: ["self", "profile"],
            builder.build_registry: ["self", "registry"],
            builder.add_all_quantitative: ["self", "uid", "preferences"],
            repro.HypreGraph.quantitative_preferences: [
                "self", "uid", "include_negative"],
        }
        for target, names in pinned.items():
            assert list(inspect.signature(target).parameters) == names, target
        assert inspect.signature(
            repro.HypreGraph.quantitative_preferences
        ).parameters["include_negative"].default is True

    def test_subpackage_all_names_resolve(self):
        import repro.algorithms as algorithms
        import repro.backend as backend
        import repro.core as core
        import repro.extensions as extensions
        import repro.index as index
        import repro.loadgen as loadgen
        import repro.serving as serving
        import repro.sqldb as sqldb
        import repro.telemetry as telemetry
        import repro.workload as workload

        for module in (algorithms, backend, core, extensions, index, loadgen,
                       serving, sqldb, telemetry, workload):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"

    def test_subpackage_all_names_documented(self):
        """Every ``__all__`` symbol appears in its package docstring's API list."""
        import repro.algorithms as algorithms
        import repro.backend as backend
        import repro.core as core
        import repro.core.hypre as hypre
        import repro.extensions as extensions
        import repro.index as index
        import repro.loadgen as loadgen
        import repro.serving as serving
        import repro.sqldb as sqldb
        import repro.telemetry as telemetry
        import repro.workload as workload

        for module in (repro, algorithms, backend, core, hypre, extensions,
                       index, loadgen, serving, sqldb, telemetry, workload):
            for name in module.__all__:
                assert name in module.__doc__, (
                    f"{name} undocumented in {module.__name__}")

    def test_exception_hierarchy(self):
        assert issubclass(IntensityRangeError, ReproError)
        assert issubclass(TopKError, ReproError)
        with pytest.raises(ReproError):
            raise IntensityRangeError(2.0, -1.0, 1.0)


class TestReadmeQuickstart:
    """The README quickstart must stay runnable end to end."""

    def test_quickstart_flow(self):
        profile = UserProfile(uid=1)
        profile.add_quantitative("dblp.year >= 2009", 0.8)
        profile.add_quantitative("dblp.venue = 'INFOCOM'", -1.0)
        profile.add_qualitative("dblp.venue = 'VLDB'", "dblp.venue = 'SIGMOD'", 0.3)

        hypre, report = build_hypre_graph(profile)
        assert report.qualitative_edges == 1

        db = Database(":memory:")
        load_dataset(db, generate_dblp(DblpConfig(n_papers=200, n_authors=80,
                                                  n_venues=8, seed=1)))
        runner = PreferenceQueryRunner(db)
        peps = PEPSAlgorithm(runner, preferences_from_graph(hypre, 1))
        ranking = peps.top_k(10)
        assert len(ranking) == 10
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        db.close()


class TestDatabaseOnDisk:
    def test_file_backed_database_persists(self, tmp_path, tiny_dataset):
        path = tmp_path / "workload.sqlite"
        with Database(path) as db:
            load_dataset(db, tiny_dataset)
            papers = db.total_papers()
        # Re-open the file and verify the data survived the connection.
        with Database(path) as db:
            assert db.total_papers() == papers

    def test_create_false_skips_schema(self, tmp_path):
        path = tmp_path / "raw.sqlite"
        with Database(path, create=False) as db:
            assert db.query("SELECT name FROM sqlite_master WHERE type='table'") == []
