"""Finite samples of compact plane sets.

Compact sets enter every sup-style statement in this package only through
finite samples; a computed sup is therefore a lower bound of the true sup,
and each sample carries its mesh (the largest gap between adjacent sample
points) so callers can report how fine the sampling was.

The built-in generators (circle, disc grid, segment) attach a refinement
hook so verification steps can re-sample the same set more densely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domains import checked_disc
from .errors import InvalidSampleError


@dataclass(frozen=True)
class CompactSample:
    """Finite sample of a compact set with mesh metadata."""

    points: np.ndarray
    label: str
    mesh: float
    refine: Callable[[int], "CompactSample"] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex).ravel()
        if pts.size == 0:
            raise InvalidSampleError("compact sample must be non-empty")
        if not np.isfinite(pts).all():
            raise InvalidSampleError("compact sample points must be finite")
        if not self.mesh > 0:
            raise InvalidSampleError("mesh must be positive")
        object.__setattr__(self, "points", pts)
        self.points.setflags(write=False)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def refined(self, factor: int) -> "CompactSample":
        """A denser sample of the same set, or self when no generator exists."""
        if self.refine is None:
            return self
        return self.refine(factor)

    def to_data(self) -> dict:
        return {
            "label": self.label,
            "mesh": self.mesh,
            "points": [[z.real, z.imag] for z in self.points],
        }

    @classmethod
    def from_data(cls, data: dict) -> "CompactSample":
        pts = [complex(re, im) for re, im in data["points"]]
        return cls(np.array(pts), data["label"], float(data["mesh"]))


def circle_sample(center: complex, radius: float, count: int, label: str | None = None) -> CompactSample:
    """``count`` equispaced points of the circle |z - center| = radius."""
    center, radius = checked_disc(center, radius, "a circle sample", InvalidSampleError)
    if count < 1:
        raise InvalidSampleError("need count >= 1")
    theta = 2.0 * np.pi * np.arange(count) / count
    pts = center + radius * np.exp(1j * theta)
    mesh = 2.0 * radius * np.sin(np.pi / count) if count > 1 else 2.0 * radius
    name = label or f"circle({center:g},{radius:g})x{count}"
    return CompactSample(pts, name, float(mesh), refine=lambda f: circle_sample(center, radius, count * f, name))


def disc_grid_sample(center: complex, radius: float, side: int, label: str | None = None) -> CompactSample:
    """``side x side`` grid on the square inscribed in the closed disc.

    Corners of the grid touch the bounding circle, so the sample lies in
    the closed disc; the mesh is the grid spacing.
    """
    center, radius = checked_disc(center, radius, "a disc grid", InvalidSampleError)
    if side < 1:
        raise InvalidSampleError("need side >= 1")
    half = radius / np.sqrt(2.0)
    u = np.linspace(-half, half, side) if side > 1 else np.array([0.0])
    xx, yy = np.meshgrid(u, u)
    pts = (center + xx + 1j * yy).ravel()
    mesh = (2.0 * half / (side - 1)) if side > 1 else 2.0 * radius
    name = label or f"disc-grid({center:g},{radius:g})x{side * side}"
    return CompactSample(
        pts, name, float(mesh),
        refine=lambda f: disc_grid_sample(center, radius, (side - 1) * f + 1, name),
    )


def segment_sample(a: complex, b: complex, count: int, label: str | None = None) -> CompactSample:
    """``count`` equispaced points of the segment [a, b] (endpoints included)."""
    if count < 2:
        raise InvalidSampleError("need count >= 2 for a segment")
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise InvalidSampleError(f"segment endpoints must be finite, got {a!r} and {b!r}")
    if not math.hypot((b - a).real, (b - a).imag) < math.inf:
        raise InvalidSampleError(f"segment overflows: |b - a| is not finite, got {a!r} and {b!r}")
    t = np.linspace(0.0, 1.0, count)
    pts = a + t * (b - a)
    mesh = abs(b - a) / (count - 1)
    name = label or f"segment({a:g},{b:g})x{count}"
    return CompactSample(
        pts, name, float(max(mesh, np.finfo(float).tiny)),
        refine=lambda f: segment_sample(a, b, (count - 1) * f + 1, name),
    )
