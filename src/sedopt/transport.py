"""Regime-dependent sediment transport rates.

Bottom shear stress comes from Manning's uniform-flow formula; the bedload
volumetric rate from the Meyer-Peter-Mueller formula with critical Shields
number theta_c. Rates are converted to the unit storage domain as
(m^3/s) * 86400 / capacity, giving 1/day.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputError
from .regime import SECONDS_PER_DAY, RegimeChain, read_json_record

__all__ = [
    "SedimentProperties",
    "shear_stress",
    "transport_rate_physical",
    "normalized_rate",
    "rates_for_chain",
]


@dataclass(frozen=True)
class SedimentProperties:
    """Channel and sediment constants (defaults: typical gravel-bed reach).

    g gravitational acceleration (m/s^2), B channel width (m), l channel
    slope (dimensionless ratio), n Manning roughness (m^(1/3) s), rho water
    density (kg/m^3), rho_s sediment density (kg/m^3), gamma particle
    diameter (m), capacity total storable sediment volume (m^3), theta_c
    critical Shields number. All must be finite and positive.
    """

    g: float = 9.81
    B: float = 25.0
    l: float = 0.001
    n: float = 0.035
    rho: float = 1000.0
    rho_s: float = 2600.0
    gamma: float = 5.0e-3
    capacity: float = 100.0
    theta_c: float = 0.047

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:  # NaN fails too
                raise InputError(f"{f.name} must be finite and positive")
        if self.rho_s <= self.rho:
            raise InputError("sediment density must exceed water density")

    @property
    def sigma(self) -> float:
        """Submerged specific gravity rho_s/rho - 1."""
        return self.rho_s / self.rho - 1.0

    @classmethod
    def from_json(cls, path: str | Path) -> "SedimentProperties":
        """Load from a JSON object; missing keys take the defaults, errors name the file."""
        return read_json_record(path, cls)


def shear_stress(q, props: SedimentProperties):
    """Bottom shear stress tau(q) = rho g n^(3/5) l^(7/10) B^(-3/5) q^(3/5)."""
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q < math.inf)):  # NaN fails too
        raise InputError("discharge must be finite and >= 0")
    coeff = props.rho * props.g * props.n ** 0.6 * props.l ** 0.7 * props.B ** -0.6
    out = coeff * q ** 0.6
    return out if out.ndim else float(out)


def transport_rate_physical(q, props: SedimentProperties):
    """Volumetric bedload rate in m^3/s; zero below the Shields threshold."""
    tau = np.asarray(shear_stress(q, props), dtype=float)
    theta = tau / (props.rho * props.sigma * props.g * props.gamma)
    excess = np.maximum(theta - props.theta_c, 0.0)
    out = 8.0 * props.B * props.gamma ** 1.5 * np.sqrt(props.g * props.sigma) * excess ** 1.5
    return out if out.ndim else float(out)


def normalized_rate(q, props: SedimentProperties):
    """Transport rate on the unit storage domain, in 1/day."""
    out = np.asarray(transport_rate_physical(q, props)) * SECONDS_PER_DAY / props.capacity
    return out if out.ndim else float(out)


def rates_for_chain(chain: RegimeChain, props: SedimentProperties) -> np.ndarray:
    """Per-regime normalized rates S_i; nondecreasing since q_i increases."""
    return np.asarray(normalized_rate(chain.discharges, props), dtype=float)
