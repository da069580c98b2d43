"""Protocol-level failure modes that abort rather than flag."""

from __future__ import annotations

from typing import Sequence

from ..vsss import InsufficientSharesError


class AbortServerMaliciousError(Exception):
    """A client detected server misbehavior (bad h vector, or more than
    m clear-share requests) and quits the round."""


class ShareVerifyFailedError(InsufficientSharesError):
    """Too few aggregated blind shares remain once those failing
    verification against the combined check string are dropped."""

    def __init__(self, client_ids: Sequence[int], valid: int, threshold: int) -> None:
        super().__init__(
            f"aggregated shares from clients {list(client_ids)} failed verification; "
            f"{valid} valid, need {threshold}"
        )
        self.client_ids = tuple(client_ids)


class DlogOutOfRangeError(Exception):
    """A recovered aggregate coordinate fell outside the expected
    bounded window — inconsistent inputs or a too-small b_coord."""

    def __init__(self, coordinate: int) -> None:
        super().__init__(f"aggregate coordinate {coordinate} outside recovery bound")
        self.coordinate = coordinate
