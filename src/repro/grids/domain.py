"""Affine mapping between a problem box and the unit box.

Sparse grids live on ``[0, 1]^d`` (paper Sec. III); economic state spaces
live on problem-specific rectangular boxes ``B`` (paper Sec. II).  The
:class:`BoxDomain` handles the rescaling, including clipping of query points
that stray marginally outside the box during time iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoxDomain", "unit_coordinates"]


def unit_coordinates(x: np.ndarray, lower: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``x`` mapped onto ``[0, 1]^d`` by boxes with corner ``lower`` and ``widths``, clipped.

    The one box map: :meth:`BoxDomain.to_unit` runs it on its own bounds,
    a stacked read (:meth:`repro.grids.interpolation.StackedRead.map_rows`)
    on bounds gathered row by row.
    """
    return np.clip((x - lower) / widths, 0.0, 1.0)


@dataclass(frozen=True)
class BoxDomain:
    """A rectangular domain ``[lower_1, upper_1] x ... x [lower_d, upper_d]``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        if np.any(upper <= lower):
            raise ValueError("upper must be strictly greater than lower in every dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, dim: int, lower: float = 0.0, upper: float = 1.0) -> "BoxDomain":
        """A hypercube with identical bounds in every dimension."""
        return cls(np.full(dim, lower), np.full(dim, upper))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def to_unit(self, x: np.ndarray) -> np.ndarray:
        """Map points from the problem box to ``[0, 1]^d``, clipping strays onto its faces."""
        return unit_coordinates(np.asarray(x, dtype=float), self.lower, self.widths)

    def from_unit(self, u: np.ndarray) -> np.ndarray:
        """Map points from ``[0, 1]^d`` back to the problem box."""
        u = np.asarray(u, dtype=float)
        return self.lower + u * self.widths

    def contains(self, x: np.ndarray, atol: float = 1e-12) -> np.ndarray:
        """Boolean mask of points inside the box (per row)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all((x >= self.lower - atol) & (x <= self.upper + atol), axis=1)

    def sample(self, n: int, rng=None) -> np.ndarray:
        """Uniform random sample of ``n`` points in the box."""
        from repro.utils.rng import default_rng

        gen = default_rng(rng)
        return self.from_unit(gen.random((n, self.dim)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoxDomain(dim={self.dim})"
