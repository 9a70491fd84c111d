"""Exception types shared across the library, and json_list, the check
that outside JSON holds an array where one is expected.

Every error that corresponds to a domain-level failure (as opposed to a
programming error) derives from DomainError so the CLI can map it to a
single exit code.
"""


class DomainError(Exception):
    code = "domain-error"


class RankError(DomainError):
    code = "rank-error"


class EmptyInput(DomainError):
    code = "empty-input"


class FrozenIndex(DomainError):
    code = "frozen-index"


class NotLaurent(DomainError):
    code = "not-laurent"


class NotInSpan(DomainError):
    code = "not-in-span"


class NotInImage(DomainError):
    code = "not-in-image"


class Unbounded(DomainError):
    code = "unbounded"


class NotPositive(DomainError):
    code = "not-positive"


class NonGenericEndpoint(DomainError):
    code = "non-generic-endpoint"


class SingularPath(DomainError):
    code = "singular-path"


class RankUnsupported(DomainError):
    code = "rank-unsupported"


class BadParams(DomainError):
    code = "bad-params"


def json_list(value, what):
    """value when it is a JSON array; BadParams naming `what` otherwise,
    since a string would be read by its characters and an object by its
    keys."""
    if not isinstance(value, list):
        raise BadParams("%s must be a JSON array" % what)
    return value


class Truncated(DomainError):
    code = "truncated"
