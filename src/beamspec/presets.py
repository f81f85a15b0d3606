"""Built-in weights and nonlinearities.

Weights cover the cases the verification battery needs: strictly
positive, sign-changing odd, sign-changing even, and a single crossing.
Nonlinearities come as perturbation terms g(t, s, mu) for the perturbed
problem and asymptotically linear f(s) for the autonomous one; arbitrary
user code is out of scope, but piecewise-linear f tables can be loaded
from CSV.
"""

import math

import numpy as np

from .errors import ValidationError
from .nonlinear import AsymptoticF, PerturbationG

WEIGHTS = {
    "one": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "sin3pi": lambda t: np.sin(3.0 * np.pi * np.asarray(t, dtype=float)),
    "cos2pi": lambda t: np.cos(2.0 * np.pi * np.asarray(t, dtype=float)),
    "linear_ramp": lambda t: 1.0 - 2.0 * np.asarray(t, dtype=float),
}


def weight(name):
    try:
        return WEIGHTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown weight '{name}'; built-ins: {sorted(WEIGHTS)}") from None


def _as_s(t, s):
    return np.broadcast_arrays(np.asarray(t, dtype=float),
                               np.asarray(s, dtype=float))[1]


def cubic_perturbation():
    """g(t, s, mu) = s^3, the standard odd superlinear perturbation."""
    def ev(t, s, mu):
        s = _as_s(t, s)
        return s * s * s  # ** 3 runs an elementwise pow, dozens of times slower

    return PerturbationG(
        evaluate=ev,
        partial=lambda t, s, mu: 3.0 * _as_s(t, s) ** 2)


def zero_perturbation():
    """g = 0: the purely linear problem (vertical branches)."""
    return PerturbationG(
        evaluate=lambda t, s, mu: np.zeros_like(_as_s(t, s)),
        partial=lambda t, s, mu: np.zeros_like(_as_s(t, s)))


def linear_f():
    """f(s) = s with slopes (1, 1)."""
    # 1.0 * s is s itself as a new float or array, -0.0 included
    return AsymptoticF(f=lambda s: 1.0 * s, f0=1.0, finf=1.0,
                       derivative=lambda s: np.ones_like(np.asarray(s, dtype=float)))


def saturating_f(gain=2.0):
    """f(s) = s (gain - (gain-1)/(1+s^2)): slope 1 at zero, gain at infinity."""
    if not math.isfinite(gain):
        raise ValidationError(f"saturating gain must be finite, got {gain}")
    c = gain - 1.0

    # plain arithmetic keeps a float a float: the nonlinear shoot calls f
    # once per RK4 stage, where a numpy scalar costs several times more
    def f(s):
        return s * (gain - c / (1.0 + s * s))

    def df(s):
        return gain - c / (1.0 + s * s) + 2.0 * c * s * s / (1.0 + s * s) ** 2

    return AsymptoticF(f=f, f0=1.0, finf=float(gain), derivative=df)


def atan_shift_f():
    """f(s) = s + atan(s): slope 2 at zero, 1 at infinity."""
    # np.arctan turns a float into a numpy scalar; math.atan would keep it
    # a float but rounds differently from np.arctan on some arrays
    return AsymptoticF(
        f=lambda s: s + np.arctan(s),
        f0=2.0, finf=1.0,
        derivative=lambda s: 1.0 + 1.0 / (1.0 + s * s))


PERTURBATIONS = {
    "cubic": cubic_perturbation,
    "zero": zero_perturbation,
}

ASYMPTOTIC_FS = {
    "linear": linear_f,
    "saturating": saturating_f,
    "atan_shift": atan_shift_f,
}


def perturbation(name):
    try:
        return PERTURBATIONS[name]()
    except KeyError:
        raise ValidationError(
            f"unknown perturbation '{name}'; built-ins: {sorted(PERTURBATIONS)}") from None


def asymptotic_f(name, **params):
    try:
        factory = ASYMPTOTIC_FS[name]
    except KeyError:
        raise ValidationError(
            f"unknown nonlinearity '{name}'; built-ins: {sorted(ASYMPTOTIC_FS)}") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise ValidationError(f"bad params for '{name}': {exc}") from None


def table_f(path, f0, finf):
    """Piecewise-linear f from a two-column CSV (s, f(s)).

    The declared slopes f0, finf are the caller's claim; outside the
    tabulated range f extrapolates linearly with slope finf.
    """
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    s_tab, f_tab = data[:, 0], data[:, 1]
    order = np.argsort(s_tab)
    s_tab, f_tab = s_tab[order], f_tab[order]

    def f(s):
        s = np.asarray(s, dtype=float)
        inside = np.interp(s, s_tab, f_tab)
        lo = f_tab[0] + (s - s_tab[0]) * finf
        hi = f_tab[-1] + (s - s_tab[-1]) * finf
        return np.where(s < s_tab[0], lo, np.where(s > s_tab[-1], hi, inside))

    return AsymptoticF(f=f, f0=float(f0), finf=float(finf))
