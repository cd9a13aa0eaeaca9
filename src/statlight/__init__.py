"""Mean-field simulator of two-color stationary light in a double-lambda medium.

Two counterpropagating field channels ride on a shared spin coherence; a pair
of control beams sets whether the bound polariton walks, stands still, or is
parked entirely in the medium. The package integrates the coupled transport
equations directly, evolves the adiabatically slaved branch spectrally, and
checks both against closed-form envelope laws.

The public names below are imported from their modules on first use, so that
`import statlight` loads no numpy: the CLI entry point (`__main__`) sets its
BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("RunConfig", "parse_config", "render_config"),
    "errors": ("SimulationError",),
    "medium": ("MediumModel", "build_medium", "build_pulse", "build_schedule",
               "coefficients", "group_velocity"),
    "oracle": ("conversion_probability", "gaussian_envelope",
               "spreading_velocity", "width_b"),
    "presets": ("get_preset", "list_presets"),
    "scenario": ("RunResult", "run_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
