"""World set-up through the public front doors, timed per phase.

``SCALES["default"]`` → ``generate_dblp`` → ``PreferenceExtractor.extract_all``
→ ``create_backend`` + ``load_dataset`` → ``load_profiles`` → ``TopKServer``.
The same world serves every workload; only backend and capacity differ.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro import (HypreGraphBuilder, PreferenceExtractor, TopKServer,
                   create_backend, generate_dblp, preferences_from_graph)
from repro.experiments.context import SCALES
from repro.workload import dataset_digest, load_dataset, load_profiles

#: Set-up phases in execution order; ``setup_s`` is their sum.
SETUP_PHASES = ("generate", "extract", "load_dataset", "load_profiles", "server")


@dataclass
class World:
    dataset: Any
    registry: Any
    db: Any
    server: Any
    phase_ns: Dict[str, int]

    def fresh_server(self, capacity: int) -> Any:
        """Replace the server by an empty one over the same backend."""
        self.server.close()
        self.server = TopKServer(self.db, capacity=capacity)
        return self.server

    def close(self) -> None:
        self.server.close()
        self.db.close()


def build_world(backend: str, capacity: int) -> World:
    now = time.perf_counter_ns
    marks = [now()]
    dataset = generate_dblp(SCALES["default"])
    marks.append(now())
    registry = PreferenceExtractor(dataset).extract_all()
    marks.append(now())
    db = create_backend(backend, path=":memory:")
    load_dataset(db, dataset)
    marks.append(now())
    load_profiles(db, registry)
    marks.append(now())
    server = TopKServer(db, capacity=capacity)
    marks.append(now())
    phase_ns = {phase: marks[i + 1] - marks[i]
                for i, phase in enumerate(SETUP_PHASES)}
    return World(dataset, registry, db, server, phase_ns)


def profiles_digest(registry: Any) -> str:
    """Content hash of the mined profiles (order- and value-exact)."""
    digest = hashlib.sha256()
    for profile in sorted(registry, key=lambda p: p.uid):
        for pref in profile.quantitative:
            digest.update(f"{profile.uid}|q|{pref.predicate_sql}|"
                          f"{pref.intensity!r}\n".encode())
        for pref in profile.qualitative:
            digest.update(f"{profile.uid}|l|{pref.left_sql}|{pref.right_sql}|"
                          f"{pref.intensity!r}\n".encode())
    return digest.hexdigest()


def input_digests(world: World) -> Dict[str, str]:
    return {"dataset_digest": dataset_digest(world.dataset),
            "profiles_digest": profiles_digest(world.registry)}


def usable_preferences(profile: Any) -> int:
    """Positive preferences of the profile's HYPRE graph — what PEPS combines.

    The pair index holds one count per pair of them, so this, not the raw
    preference count, drives the cost of a cold read and of a mutation sweep
    (profiles of 50 preferences yield 23 to 32 usable ones).
    """
    builder = HypreGraphBuilder()
    builder.build_profile(profile)
    return len(preferences_from_graph(builder.hypre, profile.uid))


def populations(registry: Any, typical_max: int) -> Dict[str, List[int]]:
    """User ids by population, ordered by cost — the order the systematic
    samplers cut into slices."""
    cost = {profile.uid: usable_preferences(profile) for profile in registry}
    ranked = sorted(registry, key=lambda p: (cost[p.uid], len(p), p.uid))
    return {"all": [p.uid for p in ranked],
            "typical": [p.uid for p in ranked if len(p) <= typical_max]}
