from .client import Client
from .errors import (
    AbortServerMaliciousError,
    DlogOutOfRangeError,
    ShareVerifyFailedError,
)
from .pairwise import keygen, open_share, pairwise_key, seal_share
from .server import Server

__all__ = [
    "AbortServerMaliciousError",
    "Client",
    "DlogOutOfRangeError",
    "Server",
    "ShareVerifyFailedError",
    "keygen",
    "open_share",
    "pairwise_key",
    "seal_share",
]
