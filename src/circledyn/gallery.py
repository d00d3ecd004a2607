"""Ready-made maps used throughout the tests and docs."""

from __future__ import annotations

from .circle_map import TAU, CircleFamily, TPoly
from .skew import SkewMap


def rigid_family(label: str = "rigid") -> CircleFamily:
    """g = 0: the family of rigid rotations t -> theta + t."""
    return CircleFamily(1, TPoly((0.0,)), (), label=label)


def arnold_family(amp: float, label: str | None = None) -> CircleFamily:
    """theta -> theta + t + amp * sin(2 pi theta).

    A diffeomorphism for |amp| < 1/(2 pi); its rho = 0 locking window is
    exactly |t| <= amp.
    """
    return CircleFamily(
        1,
        TPoly((0.0,)),
        ((1, TPoly((0.0,)), TPoly((amp,))),),
        label=label or f"arnold-{amp:g}",
    )


def arnold_skew(m: int, amp: float, label: str | None = None) -> SkewMap:
    """Skew product with an x-independent sine fiber:
    (x, y) -> (m x, y + t + amp * sin(2 pi y))."""
    return SkewMap(
        m,
        ((0, 1, TPoly((0.0,)), TPoly((amp,))),),
        label=label or f"arnold-skew-{m}-{amp:g}",
    )


def c3_scaled_amplitude(c3: float) -> float:
    """Sine amplitude whose C3 norm equals ``c3``.

    The third derivative dominates: |amp sin(2 pi y)|_{C3} = amp (2 pi)^3,
    so keeping composed restricted maps inside the norm-below-one class
    means feeding amplitudes on this scale.
    """
    return c3 / TAU ** 3
