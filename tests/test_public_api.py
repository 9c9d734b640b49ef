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


def test_in_process_cluster_is_gone():
    """One server: no cluster module, no name that hid which of two front
    doors a caller held, and no shard plumbing left on ``TopKServer``."""
    import importlib
    import pkgutil

    import repro.serving as serving

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serving.cluster")
    gone = {"ShardedTopKServer", "ClusterResultsView", "Partitioner",
            "HashPartitioner", "ModuloPartitioner", "create_server",
            "ServingSurface", "ShardMutationReport"}
    modules = [repro] + [importlib.import_module(info.name) for info
                         in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module in modules:
        assert not gone & set(getattr(module, "__all__", ())), module.__name__
    assert not any(hasattr(serving, name) for name in gone)
    for name in ("shard_of", "shards", "shard_servers", "shard_for",
                 "resident_uids"):
        assert not hasattr(repro.TopKServer, name), name


def test_replay_driver_is_gone():
    """One runner: a serial replay is the load runner's one-worker run, so
    the replay driver module and its three names are gone everywhere."""
    import importlib
    import pkgutil

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serving.driver")
    gone = {f"Replay{part}" for part in ("Driver", "Config", "Report")}
    modules = [repro] + [importlib.import_module(info.name) for info
                         in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module in modules:
        assert not gone & set(getattr(module, "__all__", ())), module.__name__
        assert not gone & set(vars(module)), module.__name__


def test_no_session_is_resident():
    """Serving keeps answers and id lists, nothing per user: ``UserSession``
    is gone everywhere, the registry has no LRU surface, and neither the
    server nor an update report speaks of residency."""
    import dataclasses
    import importlib
    import pkgutil

    import repro.serving as serving

    modules = [repro] + [importlib.import_module(info.name) for info
                         in pkgutil.walk_packages(repro.__path__, "repro.")]
    for module in modules:
        assert "UserSession" not in vars(module), module.__name__
    for name in ("peek", "get", "evict", "drop_for_profile_update",
                 "resident_uids", "_evict_over_capacity", "__len__",
                 "__contains__"):
        assert not hasattr(serving.SessionRegistry, name), name
    assert not hasattr(serving.TopKServer, "_load_profile")
    assert "resident" not in {
        field.name for field in dataclasses.fields(serving.UpdateReport)}


def test_one_served_engine(monkeypatch):
    """SQLite is the only engine a flag, an environment variable or a world
    builder can pick: no ``backend=`` is left on the builders or the CLI's
    run functions, the environment is not read, and the columnar engine is
    reached only by name or as ``repro.backend.MemoryBackend``."""
    import inspect

    import repro.backend as backend
    from repro.cli import run_load, run_stats, run_topk
    from repro.experiments.context import ExperimentContext
    from repro.loadgen import build_world

    assert "MemoryBackend" not in repro.__all__
    assert not hasattr(repro, "MemoryBackend")
    assert backend.MemoryBackend().backend_name == "memory"

    pinned = {
        backend.create_backend: ["name", "path"],
        backend.MemoryBackend: ["path"],
        ExperimentContext.create: ["scale", "config", "extraction",
                                   "profile_users", "focus_count"],
        repro.build_workload_database: ["config", "path"],
        build_world: ["workload_config", "users"],
    }
    for target, names in pinned.items():
        assert list(inspect.signature(target).parameters) == names, target
    name = inspect.signature(backend.create_backend).parameters["name"]
    assert name.default is inspect.Parameter.empty
    for run in (run_topk, run_load, run_stats):
        assert "backend" not in inspect.signature(run).parameters, run

    monkeypatch.setenv("REPRO_BACKEND", "memory")
    db, _ = repro.build_workload_database(
        DblpConfig(n_papers=20, n_authors=10, n_venues=3, seed=1))
    with db:
        assert type(db) is Database


def test_storage_backend_members_are_pinned():
    """The protocol is what serving needs; the experiments' members
    (``total_papers``, ``distinct_count``, ``commit``) live on ``Database``
    alone, and ``count_many`` has no chunking knob."""
    import inspect

    from repro.backend import MemoryBackend, StorageBackend

    members = sorted(set(StorageBackend.__annotations__)
                     | {name for name in vars(StorageBackend)
                        if not name.startswith("_")})
    assert members == sorted([
        "backend_name", "statements_executed", "rows_touched",
        "is_closed", "close",
        "subscribe", "unsubscribe", "has_subscribers", "notify",
        "count_matching", "count_many", "matching_paper_ids", "joined_rows",
        "table_counts",
        "workload_shape", "paper_ids", "max_paper_id", "max_author_id",
        "load_dataset", "append_papers", "delete_papers", "update_papers",
        "load_profiles", "read_profiles", "profile_rows",
    ])
    for engine in (StorageBackend, Database, MemoryBackend):
        assert list(inspect.signature(engine.count_many).parameters) == [
            "self", "predicates"], engine
    for name in ("total_papers", "distinct_count", "commit"):
        assert hasattr(Database, name)
        assert not hasattr(MemoryBackend, name), name


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
