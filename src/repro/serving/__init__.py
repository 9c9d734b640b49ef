"""Multi-user Top-K serving engine with an update-aware result cache.

This subsystem is the layer the ROADMAP's "heavy traffic from millions of
users" target plugs into: instead of rebuilding one user's state per query
(the seed behaviour), finished Top-K answers are **materialised** and kept
exactly as fresh as one event stream proves necessary — the full
tuple-mutation spectrum (inserts, deletes, in-place updates) from
:mod:`repro.sqldb.events`.  A cold read builds the user's HYPRE graph and
PEPS from the persisted profile, reads its id lists through one memo every
read shares, and keeps only the answer; a profile update persists and drops
that user's answers, and the next read builds again (see
``docs/ARCHITECTURE.md`` for the event flow and "Why no session is
resident", and ``docs/SERVING.md`` for the end-to-end tutorial).

Public API
----------
:class:`TopKServer`
    The thread-safe serving engine and its one front door:
    ``top_k(uid, k)`` / ``update_profile(uid, profile)`` /
    ``insert_tuples(papers, ...)`` / ``delete_tuples(pids)`` /
    ``update_tuples(papers)`` / ``metrics()`` / ``close()``; every door
    returns per-request metrics (cache hit, SQL statements, latency), and
    every data mutation runs one pipeline.
:class:`ServeResult` / :class:`UpdateReport` / :class:`DataMutationReport`
    The per-request metrics records: ``ServeResult`` is a named tuple (the
    one record a warm hit builds), the two write reports frozen dataclasses.
:class:`SessionRegistry`
    The cold read's build path — staging tables → HYPRE graph → one PEPS
    over its positive preferences — and the id-list memo every build
    shares; it keeps no session.
:class:`ResultCache`
    Materialised ``(uid, k) -> ranking`` answers, invalidated per-user by
    profile updates and *selectively* by data-mutation events.
:class:`CachedResult`
    One materialised answer plus the predicates it depends on.
:class:`Op` / ``READ`` / ``UPDATE`` / ``INSERT`` / ``DELETE`` / ``DATA_UPDATE``
    The one operation vocabulary: a frozen op record and its five kinds
    (``OP_KINDS`` lists them, ``MUTATION_KINDS`` groups the data-side
    three).
:class:`OpMix` / ``MIXES``
    The five relative op weights, Zipf exponent and mutation-targeting
    policy of a run (``TARGET_ANY`` / ``TARGET_HOT`` / ``TARGET_BOUNDARY``).
    ``OpMix()`` is the benign default; ``MIXES`` names the hostile ones
    (hot-key mutation storms, delete-heavy churn, profile thrash,
    repair-boundary updates) and ``OpMix.named(name)`` looks one up — the
    CLI ``--mix`` flags go through it.
:class:`OpStream` / :func:`build_streams` / :func:`target_pool`
    The one generator: a deterministic endless op stream over an owned pid
    namespace.  A serial replay is the one-worker stream owning the whole
    relation; :func:`build_streams` partitions N for a concurrent run.
:func:`apply_op` / :class:`Uncached`
    ``apply_op(target, op)`` calls the front door an op names and returns
    its result; ``target`` is a :class:`TopKServer` or ``Uncached(db)``,
    the same five doors over the bare loader and :func:`fresh_top_k` (the
    no-serving-layer arm).  The one runner that applies streams to an arm,
    serially or from N threads, is :class:`repro.loadgen.LoadGenerator`.
:func:`fresh_top_k`
    From-scratch recomputation of one user's Top-K — the serving oracle.
"""

from .ops import (
    DATA_UPDATE,
    DELETE,
    INSERT,
    MIXES,
    MUTATION_KINDS,
    OP_KINDS,
    READ,
    TARGET_ANY,
    TARGET_BOUNDARY,
    TARGET_HOT,
    UPDATE,
    Op,
    OpMix,
    OpStream,
    Uncached,
    apply_op,
    build_streams,
    target_pool,
)
from .results import CachedResult, ResultCache
from .server import (
    DataMutationReport,
    ServeResult,
    TopKServer,
    UpdateReport,
    fresh_top_k,
)
from .sessions import SessionRegistry

__all__ = [
    "CachedResult",
    "DATA_UPDATE",
    "DELETE",
    "DataMutationReport",
    "INSERT",
    "MIXES",
    "MUTATION_KINDS",
    "OP_KINDS",
    "Op",
    "OpMix",
    "OpStream",
    "READ",
    "ResultCache",
    "ServeResult",
    "SessionRegistry",
    "TARGET_ANY",
    "TARGET_BOUNDARY",
    "TARGET_HOT",
    "TopKServer",
    "UPDATE",
    "Uncached",
    "UpdateReport",
    "apply_op",
    "build_streams",
    "fresh_top_k",
    "target_pool",
]
