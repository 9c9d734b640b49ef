"""Multi-user Top-K serving engine with an update-aware result cache.

This subsystem is the layer the ROADMAP's "heavy traffic from millions of
users" target plugs into: instead of rebuilding one user's state per query
(the seed behaviour), finished Top-K answers are **materialised** and kept
exactly as fresh as one event stream proves necessary — the full
tuple-mutation spectrum (inserts, deletes, in-place updates) from
:mod:`repro.sqldb.events`.  A cold read builds the user's HYPRE graph and
PEPS from the persisted profile, reads its id lists through one memo every
read shares, and keeps only the answer, one per user; a profile update
outdates that user's answer, and the next read repairs it (see
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
    One materialised answer per user, serving every k up to its own,
    outdated by profile updates and repaired *selectively* under data
    mutations.
:class:`CachedResult`
    One materialised answer plus the predicates it depends on.
:class:`Op` / ``READ`` / ``UPDATE`` / ``INSERT`` / ``DELETE`` / ``DATA_UPDATE``
    The one operation vocabulary: a frozen op record and its five kinds
    (``OP_KINDS`` lists them, ``MUTATION_KINDS`` groups the data-side
    three).
:class:`OpMix`
    The five relative op weights of a run; ``OpMix()`` is the benign
    default, and users are drawn Zipf-skewed.
:class:`OpStream` / :func:`build_streams`
    The one generator: a deterministic endless op stream in its own pid
    lane.  A serial replay is the lone stream owning the whole loaded
    relation; :func:`build_streams` builds N empty-handed ones for a
    concurrent run.
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
    MUTATION_KINDS,
    OP_KINDS,
    READ,
    UPDATE,
    Op,
    OpMix,
    OpStream,
    Uncached,
    apply_op,
    build_streams,
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
    "MUTATION_KINDS",
    "OP_KINDS",
    "Op",
    "OpMix",
    "OpStream",
    "READ",
    "ResultCache",
    "ServeResult",
    "SessionRegistry",
    "TopKServer",
    "UPDATE",
    "Uncached",
    "UpdateReport",
    "apply_op",
    "build_streams",
    "fresh_top_k",
]
