"""Two-way amplify-and-forward relaying in an underlay spectrum-sharing cell.

Library layers:

- mathkernel: special functions, adaptive quadrature, monotone root finding
- channels:   geometry, Rayleigh fading sampler, analytic SIR-component laws
- power:      average-interference water-filling power allocation
- relaying:   per-draw SIR computation plus a symbol-level oracle
- analysis:   outage probabilities, bounds, closed forms, rate curves
- expcli:     config parsing, experiment CSV driver

The package exposes exactly the names each module lists in its `__all__`.
"""

from .mathkernel import *
from .channels import *
from .power import *
from .relaying import *
from .analysis import *
from .expcli import *

__version__ = "0.1.0"
