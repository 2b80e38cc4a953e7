"""desguard: supervisory control systems under actuator/sensor attacks.

Build closed-loop models of a plant and its partial-observation supervisor
under actuator-enablement, sensor-erasure, or sensor-insertion attacks;
diagnose attacks online; and decide whether the detect-then-freeze defense
keeps the plant out of its unsafe states.

The package exports the names of the README's library tour; everything
else lives in its module.  Importing the package imports every analysis
module, so each is reachable as an attribute; the worked examples
(`desguard.systems`) and the command line (`desguard.cli`) load on demand.
"""

__version__ = "0.1.0"

from . import attacks, automata, diagnosis, modelio, runtime, safety, synthesis
from .attacks import MODE_AE, VulnerabilitySpec, build_model
from .automata import Alphabet, Automaton
from .safety import check_ae_safe_verifier, check_gf_safe_diagnoser, oracle_defense_simulation

__all__ = [
    "MODE_AE",
    "Alphabet",
    "Automaton",
    "VulnerabilitySpec",
    "build_model",
    "check_ae_safe_verifier",
    "check_gf_safe_diagnoser",
    "oracle_defense_simulation",
]
