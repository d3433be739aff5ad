"""Built-in benchmark models.

ou-linear:      dX = a X dt + sigma dW,            dY = h X dt + dV
correlated-ou:  dX = a X dt + sigma dW + rho dV,   dY = h X dt + dV
cubic-sensor:   dX = a X dt + sigma dW,            dY = h_c(X) dt + dV

The two linear models admit the exact Gaussian filter as an oracle.  The
cubic sensor uses h_c(x) = x^3 / (1 + eps x^2)^(3/2): cubic near the
origin, smoothly saturating at eps^(-3/2), so the observation field stays
bounded with bounded derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import FilterModel
from .reference import LinearModel


@dataclass(frozen=True)
class ModelBundle:
    filter_model: FilterModel
    linear: LinearModel | None   # exact oracle when the model is linear


def gaussian_density(mean: float, var: float):
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    return lambda x: norm * np.exp(-0.5 * (np.asarray(x, dtype=float) - mean) ** 2 / var)


def ou_linear(a=-1.0, sigma=1.0, hslope=1.0, m0=0.0, P0=1.0) -> ModelBundle:
    return correlated_ou(a, sigma, 0.0, hslope, m0, P0)


def correlated_ou(a=-1.0, sigma=1.0, rho=0.5, hslope=1.0, m0=0.0, P0=1.0) -> ModelBundle:
    fm = FilterModel(d=1, d1=1, r=1,
                     b=lambda x: a * np.asarray(x, dtype=float),
                     sigma=sigma, rho=rho,
                     h=lambda x: hslope * np.asarray(x, dtype=float),
                     p0=gaussian_density(m0, P0))
    lin = LinearModel(a=a, sigma=sigma, rho=rho, h=hslope, m0=m0, P0=P0)
    return ModelBundle(fm, lin)


def cubic_sensor(a=-1.0, sigma=1.0, eps=0.1, m0=0.0, P0=1.0) -> ModelBundle:
    def h(x):
        x = np.asarray(x, dtype=float)
        return x ** 3 / (1.0 + eps * x * x) ** 1.5

    fm = FilterModel(d=1, d1=1, r=1,
                     b=lambda x: a * np.asarray(x, dtype=float),
                     sigma=sigma, rho=0.0, h=h,
                     p0=gaussian_density(m0, P0))
    return ModelBundle(fm, None)


_BUILDERS = {
    "ou-linear": ou_linear,
    "correlated-ou": correlated_ou,
    "cubic-sensor": cubic_sensor,
}

MODEL_NAMES = tuple(_BUILDERS)


def build_model(name: str, **overrides) -> ModelBundle:
    if name not in _BUILDERS:
        raise ValueError(f"unknown model '{name}'; choose one of {', '.join(MODEL_NAMES)}")
    return _BUILDERS[name](**overrides)
