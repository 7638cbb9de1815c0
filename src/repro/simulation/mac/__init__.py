"""Which protocols the simulator covers.

:mod:`repro.simulation.mac.factory` maps each analytical model class to
its kernel in :mod:`repro.simulation.batched.kernels` and answers, by
protocol name, which registered protocols can be simulated.
"""

from repro.simulation.mac.factory import (
    available_mac_protocols,
    batch_kernel_for,
    has_behaviour_for,
)

__all__ = ["available_mac_protocols", "batch_kernel_for", "has_behaviour_for"]
