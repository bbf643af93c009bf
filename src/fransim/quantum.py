"""Closed-form two-photon interference model, CHSH quantities, a classical
(local hidden variable) reference strategy and the pair laws the engine samples.

Everything here is analytic; the Monte Carlo engine in :mod:`fransim.simulator`
is validated against these functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: CHSH bound attained by the ideal quantum model.
S_MAX = 2.0 * math.sqrt(2.0)


class UndefinedCorrelationError(ValueError):
    """Raised when a correlation coefficient is requested from all-zero rates."""


def _check_visibility(vis: float) -> None:
    if not (math.isfinite(vis) and 0.0 <= vis <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {vis!r}")


def _check_sign(value: int, name: str) -> None:
    if value not in (-1, 1):
        raise ValueError(f"{name} must be +1 or -1, got {value!r}")


def reduce_phase(radians: float) -> float:
    """Reduce an angle to [0, 2*pi). Idempotent; phases are otherwise kept
    unbounded so that scans never accumulate reduction error."""
    return radians % TWO_PI


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer phase settings entering the CHSH combination."""

    delta1: float
    delta1_prime: float
    delta2: float
    delta2_prime: float

    def pairs(self):
        """Setting pairs in the order (a,b), (a,b'), (a',b), (a',b')."""
        return (
            (self.delta1, self.delta2),
            (self.delta1, self.delta2_prime),
            (self.delta1_prime, self.delta2),
            (self.delta1_prime, self.delta2_prime),
        )

    @staticmethod
    def combine(e):
        """CHSH combination |E(a,b) - E(a,b')| + E(a',b) + E(a',b') of four
        correlations in :meth:`pairs` order; scalars stay Python floats."""
        return abs(e[0] - e[1]) + e[2] + e[3]


#: Settings for which the ideal model attains S = 2*sqrt(2)*V.
STANDARD_SETTINGS = ChshSettings(
    delta1=math.pi / 4,
    delta1_prime=-math.pi / 4,
    delta2=0.0,
    delta2_prime=math.pi / 2,
)


def coincidence_probability(i: int, j: int, d1: float, d2: float, vis: float) -> float:
    """Joint probability of registering the central-peak outcome (i, j).

    Returns (1/8) * (1 + i*j*vis*cos(d1 + d2)), which lies in [0, 1/4].
    """
    _check_visibility(vis)
    _check_sign(i, "i")
    _check_sign(j, "j")
    return 0.125 * (1.0 + i * j * vis * math.cos(d1 + d2))


def correlation(d1: float, d2: float, vis: float) -> float:
    """Correlation coefficient of the interference model: vis * cos(d1 + d2)."""
    _check_visibility(vis)
    return vis * math.cos(d1 + d2)


def correlation_from_rates(r_pp: float, r_pm: float, r_mp: float, r_mm: float) -> float:
    """Correlation coefficient from the four coincidence rates.

    (R++ - R+- - R-+ + R--) / (R++ + R+- + R-+ + R--), in [-1, 1].
    All-zero input is an error, not zero: it signals an empty measurement.
    """
    rates = (r_pp, r_pm, r_mp, r_mm)
    if any(r < 0 for r in rates):
        raise ValueError(f"coincidence rates must be non-negative, got {rates!r}")
    total = r_pp + r_pm + r_mp + r_mm
    if total <= 0:
        raise UndefinedCorrelationError("all four coincidence rates are zero")
    return (r_pp - r_pm - r_mp + r_mm) / total


def chsh_s(settings: ChshSettings, vis: float) -> float:
    """CHSH combination |E(a,b) - E(a,b')| + E(a',b) + E(a',b').

    With :data:`STANDARD_SETTINGS` this equals 2*sqrt(2)*vis.
    """
    _check_visibility(vis)
    return settings.combine([correlation(d1, d2, vis) for (d1, d2) in settings.pairs()])


def min_violating_visibility() -> float:
    """Smallest visibility for which the standard-settings S exceeds 2: 1/sqrt(2)."""
    return 1.0 / math.sqrt(2.0)


def lhv_correlation(d1, d2):
    """Correlation of the deterministic classical strategy
    a = sgn(cos(d1 + lam)), b = sgn(cos(d2 - lam)), lam uniform on [0, 2*pi).

    Piecewise-linear sawtooth in the phase sum: E = 1 - 2*m/pi with
    m = |((d1 + d2 + pi) mod 2*pi) - pi|. Accepts scalars or arrays.
    """
    delta = np.asarray(d1) + np.asarray(d2)
    m = np.abs(np.mod(delta + math.pi, TWO_PI) - math.pi)
    out = 1.0 - 2.0 * m / math.pi
    return float(out) if out.ndim == 0 else out


def lhv_chsh_s(settings: ChshSettings):
    """CHSH combination evaluated with the classical sawtooth correlation."""
    return settings.combine([lhv_correlation(d1, d2) for (d1, d2) in settings.pairs()])


# Cells of a pair detected on both sides. Bits: 3 start arm, 2 stop arm
# (set = long), 1 start port, 0 stop port (set = the -1 port).
_CELL = np.arange(16)
_SAME_ARM = (_CELL >> 3) == (_CELL >> 2 & 1)
_IJ = np.where((_CELL >> 1 & 1) == (_CELL & 1), 1, -1)


def cell_law(d1: float, d2: float, vis: float) -> np.ndarray:
    """Quantum law of the 16 cells of a pair detected on both sides: only
    same-arm pairs, whose paths are indistinguishable, interfere, so
    P = (1 + [same arm]·i·j·vis·cos(d1 + d2)) / 16."""
    _check_visibility(vis)
    return (1 + _SAME_ARM * _IJ * vis * math.cos(d1 + d2)) / 16


def lhv_cell_law(d1: float, d2: float, vis: float) -> np.ndarray:
    """Local law of the 16 cells: P = (1 + i·j·E) / 16 in each, E being
    :func:`lhv_correlation`; the arms do not depend on the hidden variable.
    ``vis`` is unused: it keeps the signature of :func:`cell_law`."""
    return (1 + _IJ * lhv_correlation(d1, d2)) / 16


#: The pair laws by name: law(d1, d2, vis) -> the 16 cell probabilities.
PAIR_LAWS = {"quantum": cell_law, "lhv": lhv_cell_law}
