"""Four-atom Tavis-Cummings evolution in closed form, with an independent
sector-exact oracle and cavity-QED observables.

The closed form (spin-1 and spin-2 blocks alike) shares no code with the
oracle and covers four resonant atoms; the oracle takes any register and
detuning.  Every propagator the package emits can be cross-checked
between the two routes on the guard band of the photon truncation.  The
package namespace holds what a typical run needs; import everything else
from its module.
"""

from .fock import FockSpace
from .spins import AtomRegister
from .model import ModelParams
from .oracle import evolution
from .propagator import full_propagator
from .dynamics import coherent_state, product_state, trajectory

__version__ = "0.1.0"

__all__ = [
    "FockSpace",
    "AtomRegister",
    "ModelParams",
    "evolution",
    "full_propagator",
    "coherent_state",
    "product_state",
    "trajectory",
    "__version__",
]
