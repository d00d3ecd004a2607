"""circledyn: rotation numbers, mode-locking windows and quasiperiodic
circles for parameterized circle maps and torus skew products.

``import circledyn`` binds every library module (all but ``cli``) in the
package and in ``sys.modules``, but a module's body runs only when one of its
attributes is first read (``importlib.util.LazyLoader``), and the public
names are served from their modules on first use (PEP 562).  So each CLI
call runs only the modules it uses, while anything that walks the loaded
modules after the import, as ``perfbench/tracer.py`` does, finds them all."""

import sys as _sys
from importlib import util as _util

__version__ = "0.1.0"

# the module that defines each group of public names
_EXPORTS = {
    "circle_map": ("CircleFamily", "FamilyNorm", "StageStack", "TPoly", "family_norm"),
    "diophantine": ("DioMeasure", "DioParams", "dio_measure", "exact_measure"),
    "errors": ("CircledynError", "DegenerateFamily", "DegenerateFiber", "HypothesisViolation",
               "InputError", "NoLockInBracket"),
    "experiments": ("EtaCurve", "IntersectionResult", "eta_curve", "intersection_measure"),
    "rotation": ("IRRATIONAL_CANDIDATE", "LOCKED", "NOT_LOCKED", "UNRESOLVED", "LockCheck",
                 "RotationResult", "classify", "is_locked", "rho_estimate"),
    "skew": ("PeriodicCircle", "RestrictedFamily", "SkewMap", "a3_check", "periodic_circles",
             "quasi_search", "restricted_family"),
    "windows": ("LockedMeasure", "Window", "enumerate_windows", "locked_measure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _bind_lazily(name: str):
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the body to the first attribute read
    return module


for _name in (*_EXPORTS, "farey", "gallery", "io"):
    globals()[_name] = _bind_lazily(_name)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
