"""Identifiers used across the system.

The paper's protocol (Fig. 3) exchanges a device *ID* and network
*addresses* (the "Master address" of the home aggregator and a temporary
address in a host network).  We give both their own value types so that a
device ID can never be passed where an address is expected.

Identifiers are deterministic: they are derived from human-readable names
chosen by scenario builders, never from random UUIDs, so repeated
simulation runs produce identical ledgers.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import AddressError

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@lru_cache(maxsize=None)
def _uid_digest(kind: str, name: str) -> str:
    """Stable 16-hex-digit hash of ``kind:name`` (cached — the protocol
    hot path reads uids once per message)."""
    return hashlib.sha256(f"{kind}:{name}".encode()).hexdigest()[:16]


def _validate_name(name: str, kind: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise AddressError(
            f"{kind} name must be a non-empty alphanumeric/._- string, got {name!r}"
        )
    return name


@dataclass(frozen=True, order=True)
class DeviceId:
    """Globally unique identifier of a metered device.

    ``name`` is the scenario-level label (e.g. ``"escooter-1"``); ``uid``
    is a short stable hash used inside protocol messages and ledger
    entries.
    """

    name: str

    def __post_init__(self) -> None:
        _validate_name(self.name, "device")
        # Same value the generated dataclass __hash__ would produce,
        # computed once: device ids key half a dozen registry/series
        # dicts per report, and rebuilding the field tuple on every
        # lookup showed in fleet profiles.
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type, tuple[str]]:
        # Pickle by name: string hashes are salted per process, so the
        # cached hash must be recomputed where the id is loaded.
        return DeviceId, (self.name,)

    @property
    def uid(self) -> str:
        """Stable 16-hex-digit identifier derived from the name."""
        return _uid_digest("device", self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class AggregatorId:
    """Identifier of an aggregator unit (one per WAN / grid-location)."""

    name: str

    def __post_init__(self) -> None:
        _validate_name(self.name, "aggregator")

    @property
    def uid(self) -> str:
        """Stable 16-hex-digit identifier derived from the name."""
        return _uid_digest("aggregator", self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class NetworkAddress:
    """A routable address inside the communication network.

    The aggregator hands devices a network address during membership
    registration ("Master address" in Fig. 3).  Addresses are scoped by
    the owning aggregator so two WANs can reuse host numbers without
    collision.
    """

    aggregator: AggregatorId
    host: int

    def __post_init__(self) -> None:
        if not isinstance(self.host, int) or self.host < 0 or self.host > 0xFFFF:
            raise AddressError(f"host must be an int in [0, 65535], got {self.host!r}")

    def __str__(self) -> str:
        return f"{self.aggregator.name}/{self.host}"


@lru_cache(maxsize=None)
def interned_device_id(name: str) -> DeviceId:
    """A shared :class:`DeviceId` for ``name``.

    Identifiers are immutable value types, so the wire-decode hot path
    reuses one instance per name instead of re-validating and
    re-allocating on every message.
    """
    return DeviceId(name)


@lru_cache(maxsize=None)
def parse_address(text: str) -> NetworkAddress:
    """Parse the ``"aggregator/host"`` string form of an address.

    Cached: addresses are immutable and the report path parses the same
    master/temporary strings on every message.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise AddressError(f"malformed address {text!r}, expected 'aggregator/host'")
    name, host_text = parts
    try:
        host = int(host_text)
    except ValueError as exc:
        raise AddressError(f"malformed host in address {text!r}") from exc
    return NetworkAddress(AggregatorId(name), host)
