"""Exception hierarchy shared by all modules."""


class HamdgError(Exception):
    """Base class for all package-specific errors."""


class BadParams(HamdgError):
    """Generator or operation called with parameters outside its domain."""


class BudgetExceeded(HamdgError):
    """An exact search ran past its configured node/size budget.

    Distinct from a negative answer: callers must never treat this as
    "does not exist".  ``nodes`` is the search nodes ticked when a node
    budget ran out, and ``None`` for a size cap.
    """

    def __init__(self, message: str = "", *, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


class ClassMismatch(HamdgError):
    """A checker was applied to a graph of the wrong class."""


class NotAMatching(HamdgError):
    """Arc set has repeated endpoints."""


class ArcMissing(HamdgError):
    """A required arc is not present in the host digraph."""


class FormatError(HamdgError):
    """Malformed exchange-format input."""


class CoverFailure(HamdgError):
    """The covering pipeline could not complete a Hamilton cycle for a matching."""

    def __init__(self, matching, message=""):
        self.matching = matching
        super().__init__(message or f"no Hamilton cycle through matching {matching}")


class MatchingFailure(HamdgError):
    """A per-cluster bipartite graph has no perfect matching."""


class MergeFailure(HamdgError):
    """The auxiliary merge digraph of a cluster is not Hamiltonian."""


class DemandOverload(HamdgError):
    """Entry/exit demand on some cluster exceeds the configured cap."""


class Disconnected(HamdgError):
    """No shifted walk exists between the requested clusters."""
