"""Catalog of worked systems with known symmetries and closed forms.

Each entry bundles a HerglotzSystem with the generators that are exact
isometries of its lift, any conformal generators with their expected
factors, closed-form solutions where they exist, and a sensible default
state.  The catalog is what the CLI and the acceptance checks iterate
over; other systems are HerglotzSystems built from expression strings.
CATALOG maps each key to its factory, whose keyword defaults (apart
from `n`) declare the parameters it accepts.

The damped oscillator appears twice on purpose: once with explicitly
time-dependent coefficients and once as an action-dependent system with
a w-linear potential.  The two lifts are conformally related by the map
returned from damped_conformal_map, and their reduced flows agree after
rescaling the action coordinate; several checks are built on that pair.

get_entry, standard_catalog and conformal_pair build each entry (and
the pair's map and factor) once per process: a bounded memo keyed by the
factory and its bound arguments, each by type and repr, returns the same
object to every call with equal arguments, so the compiled pipelines its
systems and generators cache serve every later call.  Nothing mutates a
built entry.  Calling a factory directly builds afresh.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .dynamics import ReducedState, reduced_lagrangian
from .errors import NonFiniteError, OverdampedUnsupportedError
from .expr import as_field
from .geometry import CoordinateMap, HerglotzSystem, Point
from .symmetry import SymmetryGenerator

__all__ = [
    "CatalogEntry", "free_particle", "harmonic_oscillator",
    "damped_time_dependent", "damped_action_dependent", "coupled_curved",
    "damped_oscillation", "damped_conformal_map", "conformal_pair",
    "x_scaling_control", "CATALOG", "factory_params", "standard_catalog",
    "get_entry",
]


@dataclass
class CatalogEntry:
    key: str
    title: str
    system: HerglotzSystem
    generators: Dict[str, SymmetryGenerator] = field(default_factory=dict)
    conformal: Dict[str, Tuple[SymmetryGenerator, float]] = field(default_factory=dict)
    closed_form: Optional[Callable] = None    # (rs0, u) -> ReducedState
    closed_form_x: Optional[Callable] = None  # (rs0, u) -> (x, xp)
    default_state: Optional[ReducedState] = None
    notes: str = ""
    params: Dict[str, float] = field(default_factory=dict)  # as built


def _identity(n: int):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _unit_dx(n: int, k: int):
    return [1.0 if i == k else 0.0 for i in range(n)]


# ---------------------------------------------------------------------
# free particle

def free_particle(n: int = 2) -> CatalogEntry:
    system = HerglotzSystem(n, _identity(n), [0.0] * n, 0.0, name="free")
    gens = {}
    for k in range(n):
        gens[f"x{k + 1}-shift"] = SymmetryGenerator(
            n, _unit_dx(n, k), 0.0, 0.0, name=f"x{k + 1}-shift")
    gens["time-shift"] = SymmetryGenerator(n, [0.0] * n, 1.0, 0.0,
                                           name="time-shift")
    gens["action-shift"] = SymmetryGenerator(n, [0.0] * n, 0.0, 1.0,
                                             name="action-shift")
    boost_dx = ["u"] + [0.0] * (n - 1)
    gens["boost-x1"] = SymmetryGenerator(n, boost_dx, 0.0, "x1",
                                         name="boost-x1")
    if n >= 2:
        rot_dx = ["-x2", "x1"] + [0.0] * (n - 2)
        gens["rotation-12"] = SymmetryGenerator(n, rot_dx, 0.0, 0.0,
                                                name="rotation-12")

    def closed(rs0: ReducedState, u: float) -> ReducedState:
        du = u - rs0.u
        lag = 0.5 * float(rs0.xp @ rs0.xp)
        return ReducedState(rs0.x + rs0.xp * du, rs0.xp.copy(), u,
                            rs0.w + lag * du)

    def closed_x(rs0: ReducedState, u: float):
        du = u - rs0.u
        return rs0.x + rs0.xp * du, rs0.xp.copy()

    return CatalogEntry(
        key="free", title=f"free particle (n={n})", system=system,
        generators=gens, closed_form=closed, closed_form_x=closed_x,
        default_state=ReducedState([0.8, -0.4][:n] + [0.1] * max(0, n - 2),
                                   [0.3, 0.5][:n] + [0.0] * max(0, n - 2),
                                   0.0, 0.1),
        notes="flat lift; largest symmetry algebra in the catalog")


# ---------------------------------------------------------------------
# harmonic oscillator

def harmonic_oscillator(omega: float = 1.0, n: int = 1) -> CatalogEntry:
    if omega < 0:
        raise ValueError(f"omega must be nonnegative, got {omega}")
    params = {"omega": omega}
    quad = " + ".join(f"x{i + 1}^2" for i in range(n))
    system = HerglotzSystem(
        n, _identity(n), [0.0] * n, f"0.5*omega^2*({quad})",
        params=params, name=f"harmonic(omega={omega:g})")
    gens = {
        "time-shift": SymmetryGenerator(n, [0.0] * n, 1.0, 0.0,
                                        name="time-shift"),
        "action-shift": SymmetryGenerator(n, [0.0] * n, 0.0, 1.0,
                                          name="action-shift"),
    }

    def closed(rs0: ReducedState, u: float) -> ReducedState:
        du = u - rs0.u
        if omega == 0.0:
            lag = 0.5 * float(rs0.xp @ rs0.xp)
            return ReducedState(rs0.x + rs0.xp * du, rs0.xp.copy(), u,
                                rs0.w + lag * du)
        c, s = math.cos(omega * du), math.sin(omega * du)
        a = rs0.x
        b = rs0.xp / omega
        x = a * c + b * s
        xp = omega * (-a * s + b * c)
        c2, s2 = math.cos(2 * omega * du), math.sin(2 * omega * du)
        dw = 0.25 * omega * float(np.sum((b * b - a * a) * s2
                                         + 2 * a * b * (c2 - 1.0)))
        return ReducedState(x, xp, u, rs0.w + dw)

    def closed_x(rs0: ReducedState, u: float):
        st = closed(rs0, u)
        return st.x, st.xp

    return CatalogEntry(
        key="harmonic", title=f"harmonic oscillator (omega={omega:g})",
        system=system, generators=gens, closed_form=closed,
        closed_form_x=closed_x,
        default_state=ReducedState([1.0] * n, [0.0] * n, 0.0, 0.0),
        notes="closed form includes the accumulated action", params=params)


# ---------------------------------------------------------------------
# damped oscillator, time-dependent flavor

def damped_oscillation(gamma: float, omega: float, x0, v0, u):
    """Underdamped solution of x'' + gamma x' + omega^2 x = 0 with
    x(0) = x0, x'(0) = v0.

    Raises for the overdamped and critically damped ranges, which this
    closed form does not cover.
    """
    return _damped_xv(gamma, omega, x0, v0, u)[0]


def _damped_xv(gamma: float, omega: float, x0: float, v0: float, u: float):
    """(x, x') of damped_oscillation at u: x = E s with E = exp(k u),
    k = -gamma/2, s = x0 cos(om_d u) + c sin(om_d u), and its product-rule
    derivative x' = E s' + s (E k)."""
    disc = omega * omega - 0.25 * gamma * gamma
    if disc <= 0.0:
        raise OverdampedUnsupportedError(
            f"gamma={gamma:g} >= 2*omega={2 * omega:g}: not underdamped")
    om_d = math.sqrt(disc)
    c = (v0 + 0.5 * gamma * x0) / om_d
    k = -0.5 * gamma
    try:
        decay = math.exp(k * u)
    except OverflowError:
        raise NonFiniteError(f"exp overflow at {k * u!r}") from None
    cos, sin = math.cos(om_d * u), math.sin(om_d * u)
    s = x0 * cos + c * sin
    ds = x0 * (-sin * om_d) + c * (cos * om_d)
    return decay * s, decay * ds + s * (decay * k)


def _damped_closed_x(gamma: float, omega: float, n: int):
    """The closed form (rs0, u) -> (x, xp) that both damped flavors share."""
    def closed_x(rs0: ReducedState, u: float):
        du = u - rs0.u
        out = [_damped_xv(gamma, omega, float(rs0.x[i]), float(rs0.xp[i]), du)
               for i in range(n)]
        return (np.array([o[0] for o in out]), np.array([o[1] for o in out]))
    return closed_x


def damped_time_dependent(gamma: float = 0.2, omega: float = 1.0,
                          n: int = 1) -> CatalogEntry:
    params = {"gamma": gamma, "omega": omega}
    quad = " + ".join(f"x{i + 1}^2" for i in range(n))
    h = [["exp(gamma*u)" if i == j else 0.0 for j in range(n)]
         for i in range(n)]
    system = HerglotzSystem(
        n, h, [0.0] * n, f"0.5*omega^2*exp(gamma*u)*({quad})",
        params=params, name=f"damped-time(gamma={gamma:g})")
    gens = {
        "action-shift": SymmetryGenerator(n, [0.0] * n, 0.0, 1.0,
                                          name="action-shift"),
    }
    conformal = {
        "time-scaling": (SymmetryGenerator(n, [0.0] * n, 1.0, "gamma*w",
                                           params=params, name="time-scaling"),
                         gamma),
    }
    return CatalogEntry(
        key="damped-time",
        title=f"damped oscillator, time-dependent fields (gamma={gamma:g})",
        system=system, generators=gens, conformal=conformal,
        closed_form_x=_damped_closed_x(gamma, omega, n),
        default_state=ReducedState([1.0] * n, [0.0] * n, 0.0, 0.25),
        notes="conformally related to damped-action by rescaling w",
        params=params)


# ---------------------------------------------------------------------
# damped oscillator, action-dependent flavor

def damped_action_dependent(gamma: float = 0.2, omega: float = 1.0,
                            n: int = 1) -> CatalogEntry:
    params = {"gamma": gamma, "omega": omega}
    quad = " + ".join(f"x{i + 1}^2" for i in range(n))
    system = HerglotzSystem(
        n, _identity(n), [0.0] * n, f"0.5*omega^2*({quad}) + gamma*w",
        params=params, name=f"damped-action(gamma={gamma:g})")
    gens = {
        "time-shift": SymmetryGenerator(n, [0.0] * n, 1.0, 0.0,
                                        name="time-shift"),
        "action-exp": SymmetryGenerator(n, [0.0] * n, 0.0, "exp(-gamma*u)",
                                        params=params, name="action-exp"),
    }
    return CatalogEntry(
        key="damped-action",
        title=f"damped oscillator, action-dependent potential (gamma={gamma:g})",
        system=system, generators=gens,
        closed_form_x=_damped_closed_x(gamma, omega, n),
        default_state=ReducedState([1.0] * n, [0.0] * n, 0.0, 0.25),
        notes="reduced charges need the nonlocal rescaling here",
        params=params)


# ---------------------------------------------------------------------
# generic curved entry (no special structure; exercises every code path)

def coupled_curved() -> CatalogEntry:
    system = HerglotzSystem(
        2,
        [["1 + 0.25*x2^2", 0.3], [0.3, 2.0]],
        ["0.4*x2", "-0.1*x1"],
        "0.5*(x1^2 + x2^2) + 0.3*w + 0.1*sin(u)",
        name="coupled")
    return CatalogEntry(
        key="coupled",
        title="curved kinetic block with drift and action coupling",
        system=system,
        default_state=ReducedState([0.6, -0.3], [0.2, 0.4], 0.0, 0.0),
        notes="no closed form; kept for generic-path coverage")


# ---------------------------------------------------------------------
# conformal pair machinery

def damped_conformal_map(gamma: float, n: int = 1):
    """Map (x, u, w) -> (x, u, exp(-gamma u) w) plus its conformal factor.

    Pulls the action-dependent damped lift back to exp(-gamma u) times
    the time-dependent damped lift.  The factor comes back as a bound
    Field ready for conformal_pullback_check.
    """
    comps = [f"x{i + 1}" for i in range(n)] + ["u", "exp(-gamma*u)*w"]
    cmap = CoordinateMap(n, comps, params={"gamma": gamma},
                         name="action-rescaling")
    factor = as_field("exp(-gamma*u)", n, {"gamma": gamma},
                      name="conformal-factor")
    return cmap, factor


def conformal_pair(gamma: Optional[float] = None,
                   omega: Optional[float] = None, n: int = 1):
    """(time-flavor entry, action-flavor entry, map, conformal factor),
    each built once per process (_built); gamma and omega default to the
    damped factories' defaults."""
    defaults = factory_params(damped_time_dependent)
    gamma = defaults["gamma"] if gamma is None else gamma
    omega = defaults["omega"] if omega is None else omega
    ent_a = _built(damped_time_dependent, gamma, omega, n)
    ent_b = _built(damped_action_dependent, gamma, omega, n)
    cmap, factor = _built(damped_conformal_map, gamma, n)
    return ent_a, ent_b, cmap, factor


def x_scaling_control(n: int = 1) -> SymmetryGenerator:
    """Dilation in x; deliberately not a symmetry of the oscillators.

    Used as the negative control: every residual that should be zero
    for the catalog generators must be far from zero on this one.
    """
    return SymmetryGenerator(n, [f"x{i + 1}" for i in range(n)], 0.0, 0.0,
                             name="x-scaling-control")


# ---------------------------------------------------------------------

# key -> factory, in catalog order
CATALOG: Dict[str, Callable[..., CatalogEntry]] = {
    "free": free_particle,
    "harmonic": harmonic_oscillator,
    "damped-time": damped_time_dependent,
    "damped-action": damped_action_dependent,
    "coupled": coupled_curved,
}


# (factory, (name, type, repr) of each bound argument) -> what it built,
# least recently used first: the catalog entries, the conformal pair and
# the CLI's inline systems.  The CLI and the benchmark build fewer than
# ten; a process that asks for ever new ones keeps the last _BUILT_CACHE
# of them, and with them their compiled code (expr._CODE).
_BUILT_CACHE = 64
_BUILT: dict = {}


def _built(factory, *args, **kwargs):
    """factory(*args, **kwargs), built once per process: arguments bound
    with defaults applied and equal in type and repr (so 0.0 and -0.0, or
    1 and 1.0, never share) return the first build.  A factory that
    raises stores nothing."""
    bound = inspect.signature(factory).bind(*args, **kwargs)
    bound.apply_defaults()
    key = (factory, *((name, type(v), repr(v))
                      for name, v in bound.arguments.items()))
    built = _BUILT.pop(key, None)
    if built is None:
        built = factory(*bound.args, **bound.kwargs)
        if len(_BUILT) >= _BUILT_CACHE:
            del _BUILT[next(iter(_BUILT))]
    _BUILT[key] = built
    return built


def factory_params(factory) -> Dict[str, float]:
    """The parameters a catalog factory accepts, with their defaults:
    its keyword defaults apart from the dimension `n`."""
    return {p.name: p.default
            for p in inspect.signature(factory).parameters.values()
            if p.name != "n"}


def get_entry(key: str, /, **params) -> CatalogEntry:
    """The entry `key` built with `params`, once per process (_built);
    KeyError for an unknown key, ValueError for a parameter its factory
    does not declare."""
    if key not in CATALOG:
        raise KeyError(f"unknown catalog key {key!r}; "
                       f"known keys: {', '.join(sorted(CATALOG))}")
    unknown = sorted(set(params) - set(factory_params(CATALOG[key])))
    if unknown:
        raise ValueError(
            f"system {key!r} does not accept parameter {unknown[0]!r}")
    return _built(CATALOG[key], **params)


def standard_catalog(**params):
    """Every entry keyed by name, in catalog order.  Each factory is
    given the `params` it declares and keeps its defaults for the rest."""
    unknown = set(params).difference(*map(factory_params, CATALOG.values()))
    if unknown:
        raise ValueError(f"no catalog system accepts {sorted(unknown)}")
    return {key: get_entry(key, **{k: v for k, v in params.items()
                                   if k in factory_params(factory)})
            for key, factory in CATALOG.items()}
