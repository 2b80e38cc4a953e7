"""desguard: supervisory control systems under actuator/sensor attacks.

Build closed-loop models of a plant and its partial-observation supervisor
under actuator-enablement, sensor-erasure, or sensor-insertion attacks;
diagnose attacks online; and decide whether the detect-then-freeze defense
keeps the plant out of its unsafe states.

The package exports the names of the README's library tour; everything
else lives in its module.  Importing the package loads no submodule.
Each submodule (`desguard.safety`, `desguard.systems`, ...) and each
exported name loads its module the first time it is read, so a process
pays only for what it uses: `desguard build` loads the attack builder,
the automata and the file format, and `desguard check` adds the analysis
modules.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "MODE_AE": "attacks",
    "Alphabet": "automata",
    "Automaton": "automata",
    "VulnerabilitySpec": "attacks",
    "build_model": "attacks",
    "check_ae_safe_verifier": "safety",
    "check_gf_safe_diagnoser": "safety",
    "oracle_defense_simulation": "safety",
}
_SUBMODULES = frozenset(
    {"attacks", "automata", "cli", "diagnosis", "modelio", "runtime", "safety",
     "synthesis", "systems"}
)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
