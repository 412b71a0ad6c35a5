"""Shared type aliases and small value types.

Keeping these in one module lets the rest of the package share vocabulary
without circular imports: a *site* is identified by a small integer, a
*block* by its index on the device, and every copy of a block carries a
monotonically increasing *version number* used by all three consistency
protocols.
"""

from __future__ import annotations

import enum
from typing import Union

#: Identifier of a site (replica server process).  Sites are numbered
#: ``0 .. n-1`` within a replica group.
SiteId = int

#: Index of a block on a block-structured device.
BlockIndex = int

#: Per-block version number.  Version 0 means "never written".
VersionNumber = int

#: Simulated time, in arbitrary units (the analysis is parameterised by the
#: failure-to-repair ratio rho = lambda/mu, so units cancel).
SimTime = float

Number = Union[int, float]


class SiteState(enum.Enum):
    """Operational state of a site, per Section 3.2 of the paper.

    * ``FAILED`` -- the site has ceased to function (fail-stop).
    * ``COMATOSE`` -- the site has been repaired but does not yet know
      whether it holds the most recent version of the data blocks.  Sites
      enter this state only after a *total* failure of the replica group.
    * ``AVAILABLE`` -- the site has been continuously operational, or has
      completed recovery and holds the most recent version of every block.
    """

    FAILED = "failed"
    COMATOSE = "comatose"
    AVAILABLE = "available"


class AddressingMode(enum.Enum):
    """Network addressing capability, per Section 5 of the paper.

    ``MULTICAST`` models a network where a single transmission reaches all
    destinations; ``UNIQUE`` models point-to-point networks where every
    destination requires its own message.
    """

    MULTICAST = "multicast"
    UNIQUE = "unique"


class SchemeName(enum.Enum):
    """The three consistency-control schemes the paper evaluates."""

    VOTING = "majority-consensus-voting"
    AVAILABLE_COPY = "available-copy"
    NAIVE_AVAILABLE_COPY = "naive-available-copy"

    @property
    def short(self) -> str:
        """Short tag used in table headers and series labels."""
        return {
            SchemeName.VOTING: "MCV",
            SchemeName.AVAILABLE_COPY: "AC",
            SchemeName.NAIVE_AVAILABLE_COPY: "NAC",
        }[self]
