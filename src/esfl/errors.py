"""Exception types shared across the package."""


class EsflError(Exception):
    """Base class for all package errors."""


class ProfileError(EsflError):
    """A layer profile document is malformed or fails validation."""


class ConfigError(EsflError):
    """Invalid or inconsistent configuration input."""


class AllocationError(EsflError):
    """A compute allocation is incompatible with the requested workload."""


class InfeasibleLinkError(EsflError):
    """Traffic was scheduled over a link with zero rate."""


class InfeasibleUserError(EsflError):
    """A user has no cut layer satisfying its storage/memory limits."""


def id_list(ids, shown: int = 8) -> str:
    """The user ids ``ids`` as an error message names them: the first
    ``shown`` in order, then how many more there are, so that the message
    stays short however many users it is about."""
    head = "[" + ", ".join(map(str, ids[:shown])) + "]"
    return head if len(ids) <= shown else f"{head} and {len(ids) - shown} more"
