"""Factory mapping analytical models to their simulator kernels."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.exceptions import SimulationError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.registry import available_protocols, protocol_class
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel
from repro.simulation.batched.kernels import (
    BatchKernel,
    DMACBatchKernel,
    LMACBatchKernel,
    SCPMACBatchKernel,
    XMACBatchKernel,
)

#: Analytical-model class → simulator kernel class.  Subclasses of a
#: listed model class simulate with its kernel.
_KERNELS: Dict[Type[DutyCycledMACModel], Type[BatchKernel]] = {
    XMACModel: XMACBatchKernel,
    DMACModel: DMACBatchKernel,
    LMACModel: LMACBatchKernel,
    SCPMACModel: SCPMACBatchKernel,
}


def has_behaviour_for(model_class: Type[DutyCycledMACModel]) -> bool:
    """Whether a simulator kernel exists for a model class.

    Args:
        model_class: The analytical model class to look up (subclasses of a
            listed class count, matching :func:`batch_kernel_for`).

    Returns:
        True when :func:`batch_kernel_for` would succeed for instances of
        ``model_class``.
    """
    return any(
        isinstance(model_class, type) and issubclass(model_class, registered)
        for registered in _KERNELS
    )


def available_mac_protocols() -> List[str]:
    """Canonical names of the registered protocols that can be simulated.

    Cross-references the protocol name registry with the kernel table, so
    callers (spec validation, campaign assembly, CLI help) can tell
    *simulatable* protocols apart from analytical-only ones by name before
    any model is constructed.

    Returns:
        Sorted canonical protocol names with a simulator (the four
        built-ins: ``dmac``, ``lmac``, ``scpmac``, ``xmac``).
    """
    return [
        name
        for name in available_protocols()
        if has_behaviour_for(protocol_class(name))
    ]


def batch_kernel_for(model: DutyCycledMACModel) -> Type[BatchKernel]:
    """Resolve the simulator kernel class for a model.

    Args:
        model: The analytical protocol model.

    Raises:
        SimulationError: if the model has no simulated counterpart (an
            analytical-only user-registered protocol); the message lists
            the simulatable protocol names.
    """
    for model_class, kernel_class in _KERNELS.items():
        if isinstance(model, model_class):
            return kernel_class
    raise SimulationError(
        f"no simulated behaviour is registered for {type(model).__name__} "
        f"({model.name}); protocols with a simulator: "
        f"{', '.join(available_mac_protocols())}"
    )
