"""Trust-mechanism calibration and simulation for P2P file sharing.

Volunteering earns trust, a selected volunteer that fails to deliver pays
a calibrated penalty, and a service threshold gates who gets served: lying
and bad service become losing strategies while newcomers can still earn
their way in by volunteering.
"""

from .engine import Behavior, Injection, SimConfig, run_simulation
from .game import penalty_bound_descending, recommend_threshold, recommended_penalty

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "Injection",
    "SimConfig",
    "penalty_bound_descending",
    "recommend_threshold",
    "recommended_penalty",
    "run_simulation",
    "__version__",
]
