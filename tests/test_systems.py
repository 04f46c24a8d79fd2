"""Catalog construction, closed forms, and the conformal damped pair."""

import math

import numpy as np
import pytest

import dual_oracle as ad
from hlift import systems
from hlift.dynamics import (IntegratorConfig, ReducedState, integrate_herglotz,
                            lift_state, integrate_geodesic, reduce_trajectory)
from hlift.errors import OverdampedUnsupportedError
from hlift.geometry import BrinkmannMetric, HerglotzSystem
from hlift.systems import (CATALOG, _damped_xv, conformal_pair, coupled_curved,
                           damped_action_dependent, damped_oscillation,
                           damped_time_dependent, factory_params,
                           free_particle, get_entry,
                           harmonic_oscillator, standard_catalog,
                           x_scaling_control)

TIGHT = IntegratorConfig(rtol=1e-10, atol=1e-12)


def test_catalog_layout():
    cat = standard_catalog()
    assert sorted(cat) == ["coupled", "damped-action", "damped-time", "free",
                           "harmonic"]
    for key, ent in cat.items():
        assert ent.key == key
        assert ent.default_state is not None
        assert ent.system.n in (1, 2)
    assert "time-scaling" in cat["damped-time"].conformal
    assert set(cat["free"].generators) == {
        "x1-shift", "x2-shift", "time-shift", "action-shift", "boost-x1",
        "rotation-12"}


def test_get_entry_unknown_key():
    with pytest.raises(KeyError) as err:
        get_entry("nope")
    assert "damped-action" in str(err.value)


def test_factory_defaults_declare_parameters():
    # the keyword defaults apart from n are what an entry accepts, and the
    # entry records the values it was built with
    assert {key: factory_params(f) for key, f in CATALOG.items()} == {
        "free": {}, "harmonic": {"omega": 1.0},
        "damped-time": {"gamma": 0.2, "omega": 1.0},
        "damped-action": {"gamma": 0.2, "omega": 1.0}, "coupled": {}}
    assert get_entry("damped-time", gamma=0.3).params == {"gamma": 0.3,
                                                          "omega": 1.0}
    with pytest.raises(ValueError, match="'omega'"):
        get_entry("free", omega=2.0)
    with pytest.raises(ValueError, match="gama"):
        standard_catalog(gama=0.3)


def test_free_closed_form_vs_integration():
    ent = free_particle()
    rs0 = ent.default_state
    rt = integrate_herglotz(ent.system, rs0, (0.0, 6.0), config=TIGHT)
    for u in np.linspace(0.0, 6.0, 13):
        want = ent.closed_form(rs0, u)
        got = rt.state_at(u)
        assert np.allclose(got.x, want.x, atol=1e-10)
        assert np.allclose(got.xp, want.xp, atol=1e-10)
        assert got.w == pytest.approx(want.w, abs=1e-9)


def test_harmonic_closed_form_vs_integration():
    ent = harmonic_oscillator(omega=1.7)
    rs0 = ReducedState([0.9], [-0.4], 0.5, 0.2)
    rt = integrate_herglotz(ent.system, rs0, (0.5, 6.5), config=TIGHT)
    for u in np.linspace(0.5, 6.5, 13):
        want = ent.closed_form(rs0, u)
        got = rt.state_at(u)
        assert got.x[0] == pytest.approx(want.x[0], abs=5e-9)
        assert got.xp[0] == pytest.approx(want.xp[0], abs=5e-9)
        assert got.w == pytest.approx(want.w, abs=5e-8)


def test_harmonic_zero_frequency_is_free():
    ent = harmonic_oscillator(omega=0.0)
    rs0 = ReducedState([1.0], [0.5], 0.0, 0.0)
    st = ent.closed_form(rs0, 2.0)
    assert st.x[0] == pytest.approx(2.0)
    assert st.xp[0] == 0.5
    # w accumulates the free kinetic action
    assert st.w == pytest.approx(0.5 * 0.25 * 2.0)


def test_harmonic_negative_frequency_rejected():
    with pytest.raises(ValueError):
        harmonic_oscillator(omega=-1.0)


def test_damped_oscillation_closed_form():
    # independent check: the expression satisfies its own defining ODE
    # when differentiated twice by finite differences
    g, om = 0.3, 1.2
    eps = 1e-5
    for u in (0.4, 1.7, 5.0):
        xm = damped_oscillation(g, om, 1.0, 0.0, u - eps)
        x0 = damped_oscillation(g, om, 1.0, 0.0, u)
        xp_ = damped_oscillation(g, om, 1.0, 0.0, u + eps)
        xdd = (xp_ - 2 * x0 + xm) / eps ** 2
        xd = (xp_ - xm) / (2 * eps)
        assert xdd + g * xd + om * om * x0 == pytest.approx(0.0, abs=1e-5)


def test_damped_oscillation_dual_derivative():
    # the closed-form velocity is bit for bit the Dual oracle's derivative
    # of the closed form, and agrees with central differences
    g, om = 0.2, 1.0
    for x0, v0, u in [(1.0, 0.0, 1.3), (0.7, -0.4, 0.0), (-1.1, 0.3, 7.9),
                      (0.2, 1.5, -2.4)]:
        x, xv = _damped_xv(g, om, x0, v0, u)
        dual = _dual_damped_oscillation(g, om, x0, v0, ad.variable(u, 0, 1))
        assert (x, xv) == (dual.val, dual.grad[0])
        assert x == damped_oscillation(g, om, x0, v0, u)
        eps = 1e-6
        fd = (damped_oscillation(g, om, x0, v0, u + eps)
              - damped_oscillation(g, om, x0, v0, u - eps)) / (2 * eps)
        assert xv == pytest.approx(fd, rel=1e-8, abs=1e-9)


def _dual_damped_oscillation(gamma, omega, x0, v0, u):
    """damped_oscillation's formula on the oracle's Duals."""
    om_d = math.sqrt(omega * omega - 0.25 * gamma * gamma)
    c = (v0 + 0.5 * gamma * x0) / om_d
    return ad.exp(-0.5 * gamma * u) * (x0 * ad.cos(om_d * u)
                                       + c * ad.sin(om_d * u))


def test_overdamped_rejected():
    with pytest.raises(OverdampedUnsupportedError):
        damped_oscillation(2.0, 1.0, 1.0, 0.0, 0.5)
    with pytest.raises(OverdampedUnsupportedError):
        damped_time_dependent(gamma=2.5, omega=1.0).closed_form_x(
            ReducedState([1.0], [0.0], 0.0, 0.0), 1.0)


@pytest.mark.parametrize("factory", [damped_time_dependent,
                                     damped_action_dependent])
def test_damped_closed_form_vs_integration(factory):
    ent = factory(gamma=0.4, omega=1.3)
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.1)
    rt = integrate_herglotz(ent.system, rs0, (0.0, 8.0), config=TIGHT)
    for u in np.linspace(0.0, 8.0, 17):
        x, xp = ent.closed_form_x(rs0, u)
        got = rt.state_at(u)
        assert got.x[0] == pytest.approx(x[0], abs=2e-9)
        assert got.xp[0] == pytest.approx(xp[0], abs=2e-9)


def test_damped_formulations_share_x():
    # same x(u) from both formulations even though their w histories differ
    rs0 = ReducedState([1.0], [0.0], 0.0, 0.25)
    ta = integrate_herglotz(damped_action_dependent(0.2, 1.0).system, rs0,
                            (0.0, 10.0), config=TIGHT)
    rs0_b = ReducedState([1.0], [0.0], 0.0, 0.25)
    tb = integrate_herglotz(damped_time_dependent(0.2, 1.0).system, rs0_b,
                            (0.0, 10.0), config=TIGHT)
    for u in np.linspace(0.0, 10.0, 21):
        assert ta.state_at(u).x[0] == pytest.approx(tb.state_at(u).x[0],
                                                    abs=5e-9)


def test_conformal_pair_w_histories_related():
    # w histories line up after the exponential rescaling, provided the
    # starting w is rescaled the same way
    gamma = 0.2
    ent_a, ent_b, _, _ = conformal_pair(gamma, 1.0, 1)
    rs0_a = ReducedState([1.0], [0.0], 0.0, 0.25)
    rs0_b = ReducedState([1.0], [0.0], 0.0,
                         math.exp(-gamma * rs0_a.u) * rs0_a.w)
    ta = integrate_herglotz(ent_a.system, rs0_a, (0.0, 10.0), config=TIGHT)
    tb = integrate_herglotz(ent_b.system, rs0_b, (0.0, 10.0), config=TIGHT)
    for u in np.linspace(0.0, 10.0, 21):
        wa = ta.state_at(u).w
        wb = tb.state_at(u).w
        assert math.exp(-gamma * u) * wa == pytest.approx(wb, abs=1e-8)


def test_conformal_pair_orientation():
    # entry a carries the explicit time factor, entry b the action coupling
    ent_a, ent_b, cmap, factor = conformal_pair(0.3, 1.0, 1)
    assert not ent_a.system.w_dependent
    assert ent_b.system.w_dependent
    assert factor([0.0], 2.0, 0.0) == pytest.approx(math.exp(-0.6), rel=1e-14)


def test_conformal_pair_defaults_are_the_damped_factories(monkeypatch):
    # both flavors declare the same parameters, and the pair built without
    # arguments is built at them, whatever they are
    params = factory_params(damped_time_dependent)
    assert factory_params(damped_action_dependent) == params
    ent_a, ent_b, _, _ = conformal_pair()
    assert ent_a.params == ent_b.params == params

    def shifted(gamma=0.35, omega=1.5, n=1):
        return damped_time_dependent(gamma, omega, n)

    monkeypatch.setattr(systems, "damped_time_dependent", shifted)
    ent_a, ent_b, _, _ = conformal_pair()
    assert ent_a.params == ent_b.params == {"gamma": 0.35, "omega": 1.5}


def test_coupled_has_no_closed_form():
    ent = coupled_curved()
    assert ent.closed_form is None and ent.closed_form_x is None
    assert ent.generators == {}


def test_custom_system_params():
    sys = HerglotzSystem(1, [["1"]], ["0"], "0.5*k*x1^2", params={"k": 4.0})
    rs = ReducedState([1.0], [0.0], 0.0, 0.0)
    from hlift.dynamics import reduced_lagrangian
    assert reduced_lagrangian(sys, rs) == -2.0


def test_x_scaling_control_shape():
    ctrl = x_scaling_control(2)
    K, _ = ctrl.components_at(
        ReducedState([0.5, -0.3], [0.0, 0.0], 0.0, 0.0).point())
    assert K[0] == 0.5 and K[1] == -0.3
    assert K[2] == 0.0 and K[3] == 0.0


def test_catalog_with_overridden_rates():
    cat = standard_catalog(gamma=0.5, omega=2.0)
    ent = cat["damped-action"]
    rs = ReducedState([1.0], [0.0], 0.0, 1.0)
    from hlift.dynamics import lagrangian_w_slope
    assert lagrangian_w_slope(ent.system, rs) == pytest.approx(-0.5, abs=1e-15)


# ------------------------------------------------------------- the memo

def test_equal_arguments_share_one_build():
    # defaults and explicit equal arguments, through every builder
    entry = get_entry("damped-action")
    assert get_entry("damped-action", gamma=0.2, omega=1.0) is entry
    assert standard_catalog()["damped-action"] is entry
    pair = conformal_pair(n=1)
    assert pair[0] is get_entry("damped-time") and pair[1] is entry
    assert all(a is b for a, b in zip(conformal_pair(0.2, 1.0), pair))
    assert standard_catalog(gamma=0.2)["damped-time"] is pair[0]
    assert standard_catalog()["free"] is get_entry("free")
    # a direct factory call builds afresh
    assert damped_action_dependent() is not entry


def test_arguments_of_another_type_or_sign_build_apart():
    zero, minus_zero = (get_entry("harmonic", omega=w) for w in (0.0, -0.0))
    assert zero is not minus_zero
    assert math.copysign(1.0, minus_zero.params["omega"]) == -1.0
    assert get_entry("harmonic", omega=1) is not get_entry("harmonic",
                                                           omega=1.0)
    assert type(get_entry("harmonic", omega=1).params["omega"]) is int
    pair, other = conformal_pair(gamma=0.0), conformal_pair(gamma=-0.0)
    assert not any(a is b for a, b in zip(pair, other))


def test_the_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(systems, "_BUILT", {})
    monkeypatch.setattr(systems, "_BUILT_CACHE", 3)
    # a factory that raises, or arguments refused before it, store nothing
    with pytest.raises(ValueError, match="nonnegative"):
        get_entry("harmonic", omega=-1.0)
    with pytest.raises(ValueError, match="does not accept"):
        get_entry("harmonic", gamma=1.0)
    assert systems._BUILT == {}
    for omega in (math.nan, 0.5, float("nan"), 1.5, 2.5, -math.nan, 0.5):
        get_entry("harmonic", omega=omega)
        assert len(systems._BUILT) <= 3
    # every nan has the one repr, and shares its build
    assert get_entry("harmonic", omega=math.nan) is get_entry(
        "harmonic", omega=float("nan"))
    conformal_pair(gamma=math.nan)
    assert len(systems._BUILT) == 3
