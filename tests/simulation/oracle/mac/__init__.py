"""Per-protocol forwarding behaviours of the oracle simulator.

Each behaviour translates the protocol's operation into three things the
oracle's run loop needs: the periodic (traffic-independent) energy cost of a
node, the time at which a queued packet can actually be handed to the next
hop, and the energy charged to the sender, the receiver and the overhearing
neighbours for that hop.

All four behaviours are subclasses of the shared
:class:`~oracle.mac.base.DutyCycleKernel` — the duty-cycle MAC state machine
(kernel states, periodic-cost table, contention windows, data/ack exchange
accounting); each subclass implements only its distinguishing transitions.
"""

from .base import (
    DutyCycleKernel,
    HopOutcome,
    KernelState,
    MACSimBehaviour,
    MediumGrant,
    PeriodicCharge,
    next_occurrence,
)
from .xmac import XMACSimBehaviour
from .dmac import DMACSimBehaviour
from .lmac import LMACSimBehaviour
from .scpmac import SCPMACSimBehaviour
from .factory import behaviour_for_model

__all__ = [
    "DutyCycleKernel",
    "HopOutcome",
    "KernelState",
    "MACSimBehaviour",
    "MediumGrant",
    "PeriodicCharge",
    "next_occurrence",
    "XMACSimBehaviour",
    "DMACSimBehaviour",
    "LMACSimBehaviour",
    "SCPMACSimBehaviour",
    "behaviour_for_model",
]
