"""Exception hierarchy. Every error carries a stable machine-readable code."""

from __future__ import annotations


class KeydynError(Exception):
    """Base class for all toolkit errors."""

    code = "ERROR"


class MalformedRowError(KeydynError):
    """A log row could not be parsed (bad action, timestamp, field count...)."""

    code = "MALFORMED_ROW"

    def __init__(self, row: int, reason: str, source: str | None = None) -> None:
        self.row = row
        self.reason = reason
        self.source = source
        where = f"{source}:" if source else "row "
        super().__init__(f"{where}{row}: {reason}")


class MalformedReportError(KeydynError):
    """A report document is not valid JSON or lacks a field of the report format."""

    code = "MALFORMED_REPORT"


class EmptyInputError(KeydynError):
    code = "EMPTY_INPUT"


class DuplicateSessionError(KeydynError):
    """Two logs share the same (user_id, platform, session_id) key."""

    code = "DUPLICATE_SESSION"


class EmptyListError(KeydynError, ValueError):
    code = "EMPTY_LIST"


class ValueOutOfRangeError(KeydynError, ValueError):
    """A profile value is not finite or exceeds ``keydyn.verifiers.MAX_MAGNITUDE`` in magnitude."""

    code = "VALUE_OUT_OF_RANGE"


class OutputNameError(KeydynError):
    """An output's file name is not a plain file name, or two outputs share one."""

    code = "BAD_OUTPUT_NAME"


class RosterMismatchError(KeydynError):
    code = "ROSTER_MISMATCH"


class ShapeMismatchError(KeydynError):
    code = "SHAPE_MISMATCH"


class NonFiniteScoreError(KeydynError, ValueError):
    """A score matrix holds a NaN or infinite value."""

    code = "NON_FINITE_SCORE"


class SamePlatformError(KeydynError):
    code = "SAME_PLATFORM"


class OverlappingPlatformsError(KeydynError):
    code = "OVERLAPPING_PLATFORMS"


class DuplicateScenarioError(KeydynError):
    """Two scenarios of one platform set share a name, so their report rows would collide."""

    code = "DUPLICATE_SCENARIO"


class NoEligibleUsersError(KeydynError):
    code = "NO_ELIGIBLE_USERS"


class KOutOfRangeError(KeydynError, ValueError):
    code = "K_OUT_OF_RANGE"
