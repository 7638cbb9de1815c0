"""Factory mapping analytical models to the oracle's simulated behaviours."""

from __future__ import annotations

from typing import Mapping, Sequence, Type

import numpy as np

from repro.exceptions import SimulationError
from repro.protocols.base import DutyCycledMACModel
from repro.protocols.dmac import DMACModel
from repro.protocols.lmac import LMACModel
from repro.protocols.scpmac import SCPMACModel
from repro.protocols.xmac import XMACModel
from repro.simulation.mac.factory import available_mac_protocols

from .base import MACSimBehaviour
from .dmac import DMACSimBehaviour
from .lmac import LMACSimBehaviour
from .scpmac import SCPMACSimBehaviour
from .xmac import XMACSimBehaviour

#: Analytical-model class → simulated-behaviour class.
_BEHAVIOURS: dict[Type[DutyCycledMACModel], Type[MACSimBehaviour]] = {
    XMACModel: XMACSimBehaviour,
    DMACModel: DMACSimBehaviour,
    LMACModel: LMACSimBehaviour,
    SCPMACModel: SCPMACSimBehaviour,
}


def behaviour_for_model(
    model: DutyCycledMACModel,
    params: Mapping[str, float] | Sequence[float] | np.ndarray,
    rng: np.random.Generator,
) -> MACSimBehaviour:
    """Instantiate the simulated behaviour matching an analytical model.

    Args:
        model: The analytical protocol model.
        params: Concrete parameter vector to simulate (mapping or array).
        rng: Random generator for phases and backoffs.

    Raises:
        SimulationError: if the model has no simulated counterpart; the
            message lists the simulatable protocol names.
    """
    for model_class, behaviour_class in _BEHAVIOURS.items():
        if isinstance(model, model_class):
            return behaviour_class(model, params, rng)
    raise SimulationError(
        f"no simulated behaviour is registered for {type(model).__name__} "
        f"({model.name}); protocols with a simulator: "
        f"{', '.join(available_mac_protocols())}"
    )
