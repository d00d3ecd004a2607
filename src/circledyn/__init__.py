"""circledyn: rotation numbers, mode-locking windows and quasiperiodic
circles for parameterized circle maps and torus skew products."""

__version__ = "0.1.0"

from .circle_map import (
    CircleFamily,
    ComposedCircleMap,
    FamilyNorm,
    StageStack,
    TPoly,
    TrigPoly,
    family_norm,
)
from .diophantine import (
    DioMeasure,
    DioMembership,
    DioParams,
    dio_measure,
    dio_member,
    exact_measure,
)
from .errors import (
    CircledynError,
    DegenerateFamily,
    DegenerateFiber,
    HypothesisViolation,
    InputError,
    NoLockInBracket,
)
from .experiments import (
    EtaCurve,
    IntersectionResult,
    RenormResult,
    eta_curve,
    intersection_measure,
    renormalization_check,
)
from .rotation import (
    IRRATIONAL_CANDIDATE,
    LOCKED,
    NOT_LOCKED,
    UNRESOLVED,
    LockCheck,
    RotationResult,
    classify,
    is_locked,
    rho_estimate,
)
from .skew import (
    PeriodicCircle,
    RestrictedFamily,
    SkewMap,
    a3_check,
    periodic_circles,
    quasi_search,
    restricted_family,
    skew_apply,
    winding_check,
)
from .windows import (
    LockedMeasure,
    TongueDiagram,
    Window,
    enumerate_windows,
    locked_measure,
    tongue_diagram,
    window_boundaries,
)

__all__ = [name for name in dir() if not name.startswith("_")]
