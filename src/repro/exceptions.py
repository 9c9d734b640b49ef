"""Exception hierarchy for the ``repro`` (HYPRE) library.

Every error raised by the library derives from :class:`ReproError`, so callers
can install a single ``except ReproError`` guard around library calls.  More
specific subclasses exist per subsystem (relational substrate, preference
model, algorithms, serving) so tests and applications can assert on the
precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the HYPRE reproduction library."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(ReproError):
    """Base class for errors raised by the SQLite relational substrate."""


class SchemaError(RelationalError):
    """The relational schema could not be created or is inconsistent."""


class QueryBuildError(RelationalError):
    """A SQL query could not be constructed from the given specification."""


# ---------------------------------------------------------------------------
# Preference model
# ---------------------------------------------------------------------------


class PreferenceError(ReproError):
    """Base class for preference-model errors."""


class IntensityRangeError(PreferenceError):
    """An intensity value fell outside the legal domain for its preference type."""

    def __init__(self, value: float, low: float, high: float) -> None:
        super().__init__(
            f"intensity {value!r} outside allowed range [{low}, {high}]"
        )
        self.value = value
        self.low = low
        self.high = high


class PredicateError(PreferenceError):
    """A predicate was malformed or could not be parsed/evaluated."""


class PredicateParseError(PredicateError):
    """A textual SQL predicate could not be parsed."""


class ProfileError(PreferenceError):
    """A user profile operation failed (unknown user, empty profile, ...)."""


class NodeNotFoundError(PreferenceError):
    """A node id was requested that does not exist in the preference graph."""

    def __init__(self, node_id: int) -> None:
        super().__init__(f"node {node_id!r} does not exist")
        self.node_id = node_id


# ---------------------------------------------------------------------------
# Algorithms
# ---------------------------------------------------------------------------


class AlgorithmError(ReproError):
    """Base class for preference-combination algorithm errors."""


class EmptyPreferenceListError(AlgorithmError):
    """An algorithm was invoked with no preferences to combine."""


class TopKError(AlgorithmError):
    """A Top-K retrieval failed (bad K, missing grade lists, ...)."""


# ---------------------------------------------------------------------------
# Serving layer
# ---------------------------------------------------------------------------


class ServingError(ReproError):
    """Base class for multi-user Top-K serving-engine errors."""


class UnknownUserError(ServingError):
    """A request referenced a user with no stored profile."""

    def __init__(self, uid: int) -> None:
        super().__init__(f"no stored profile for uid={uid}")
        self.uid = uid


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TelemetryError(ReproError):
    """Base class for metrics-registry and tracing errors."""


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """Base class for synthetic workload generation errors."""


class ExtractionError(WorkloadError):
    """Preference extraction from the citation network failed."""
