"""Core domain types: annualization factor and model validation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gridplan.model import (
    NetworkSpec,
    InterfaceSpec,
    ScenarioConfig,
    annualization_rate,
    validate,
)

from helpers import tiny_network, tiny_series, tiny_costs, tiny_params


class TestAnnualizationRate:
    def test_twenty_year_five_percent(self):
        # Independent evaluation: j(1+j)^P / ((1+j)^P - 1) at P=20, j=0.05.
        expected = 0.05 * 1.05**20 / (1.05**20 - 1.0)
        assert expected == pytest.approx(0.0802426, abs=5e-8)
        assert annualization_rate(20, 0.05) == pytest.approx(0.0802426, abs=1e-6)

    def test_single_period(self):
        assert annualization_rate(1, 0.05) == pytest.approx(1.05, rel=1e-12)

    def test_zero_interest_limit(self):
        assert annualization_rate(10, 0.0) == 0.1
        for p in (1, 2, 7, 40):
            assert annualization_rate(p, 0.0) == 1.0 / p

    def test_rejects_period_below_one(self):
        with pytest.raises(ValueError):
            annualization_rate(0, 0.05)
        with pytest.raises(ValueError):
            annualization_rate(-3, 0.05)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            annualization_rate(10, -0.01)

    def test_strictly_increasing_in_rate(self):
        for p in (1, 5, 20, 30):
            rates = [annualization_rate(p, j) for j in np.linspace(0.0, 0.3, 16)]
            assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_strictly_decreasing_in_period(self):
        for j in (0.01, 0.05, 0.15):
            vals = [annualization_rate(p, j) for p in range(1, 41)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_total_repayment_at_least_principal(self):
        # A(P, j) * P >= 1, equality exactly when j = 0.
        for p in (1, 3, 10, 25):
            assert annualization_rate(p, 0.0) * p == pytest.approx(1.0, rel=1e-12)
            for j in (1e-6, 0.02, 0.1):
                assert annualization_rate(p, j) * p > 1.0


class TestValidate:
    def test_consistent_fixture_is_clean(self):
        net = tiny_network()
        report = validate(net, tiny_series(net), tiny_costs(net), tiny_params())
        assert report == []

    def test_length_mismatch_reported(self):
        net = tiny_network()
        series = tiny_series(net)
        short = dict(series.d_elec)
        short["a"] = short["a"][:-1]
        bad = dataclasses.replace(series, d_elec=short)
        report = validate(net, bad, tiny_costs(net), tiny_params())
        assert len(report) == 1
        assert "length" in report[0]

    def test_potential_above_unity_reported(self):
        net = tiny_network()
        series = tiny_series(net)
        w = {k: v.copy() for k, v in series.w_on.items()}
        w["a"][3] = 1.5
        bad = dataclasses.replace(series, w_on=w)
        report = validate(net, bad, tiny_costs(net), tiny_params())
        assert len(report) == 1
        assert "potential" in report[0]

    def test_duplicate_node_ids_reported(self):
        net = tiny_network()
        dup = NetworkSpec(
            nodes=[net.nodes[0], dataclasses.replace(net.nodes[1], id="a")],
            interfaces=net.interfaces,
            offshore_cap_total_mw=net.offshore_cap_total_mw,
        )
        report = validate(dup, tiny_series(net), tiny_costs(net), tiny_params())
        assert any("unique" in v or "duplicate" in v for v in report)

    def test_interface_must_join_two_known_nodes(self):
        net = tiny_network()
        bad_iface = InterfaceSpec(
            node_a="a", node_b="zz", distance_mi=10.0,
            existing_fwd_mw=1.0, existing_rev_mw=1.0,
        )
        bad = NetworkSpec(nodes=net.nodes, interfaces=[bad_iface],
                          offshore_cap_total_mw=0.0)
        report = validate(bad, tiny_series(net), tiny_costs(net), tiny_params())
        assert any("interface" in v for v in report)

    def test_negative_capacity_reported(self):
        net = tiny_network()
        bad_node = dataclasses.replace(net.nodes[0], gas_existing_mw=-5.0)
        bad = NetworkSpec(nodes=[bad_node, net.nodes[1]],
                          interfaces=net.interfaces,
                          offshore_cap_total_mw=net.offshore_cap_total_mw)
        report = validate(bad, tiny_series(net), tiny_costs(net), tiny_params())
        assert any("negative" in v for v in report)

    def test_validate_never_mutates(self):
        net = tiny_network()
        series = tiny_series(net)
        before = {k: v.copy() for k, v in series.d_elec.items()}
        validate(net, series, tiny_costs(net), tiny_params())
        validate(net, series, tiny_costs(net), tiny_params())
        for k in before:
            np.testing.assert_array_equal(series.d_elec[k], before[k])


def _node_a(**changes):
    """Change node a of a network."""
    return lambda net: dataclasses.replace(
        net, nodes=[dataclasses.replace(net.nodes[0], **changes),
                    *net.nodes[1:]])


def _interface(*args, **changes):
    """Replace the network's one interface: a new one from ``args``, or
    the old one with ``changes``."""
    return lambda net: dataclasses.replace(net, interfaces=[
        InterfaceSpec(*args) if args
        else dataclasses.replace(net.interfaces[0], **changes)])


def _series_a(name, values):
    """Replace node a's ``name`` series by ``values(old)``."""
    return lambda series: dataclasses.replace(series, **{
        name: {**getattr(series, name),
               "a": values(getattr(series, name)["a"])}})


def _replace(**changes):
    return lambda part: dataclasses.replace(part, **changes)


# (input changed, its mutation, the one message validate must report)
VIOLATIONS = [
    ("network", lambda net: dataclasses.replace(
        net, nodes=[*net.nodes, net.nodes[0]]),
     "duplicate node ids: ['a']"),
    ("network", _interface("a", "zz", 10.0),
     "interface a:zz references an unknown node"),
    ("network", _interface("a", "a", 10.0),
     "interface a:a joins a node to itself"),
    ("network", _interface(distance_mi=0.0),
     "interface a:b distance must be > 0"),
    ("network", _interface(existing_rev_mw=-1.0),
     "interface a:b has a negative existing limit"),
    ("network", _replace(offshore_cap_total_mw=-1.0),
     "negative regional offshore capacity limit"),
    ("network", _node_a(gas_existing_mw=-5.0),
     "node a: negative gas_existing_mw"),
    ("network", _node_a(hydro_flex_mw=0.0),
     "node a: flexible-hydro hourly cap set with no flexible hydro "
     "capacity"),
    ("series", lambda series: tiny_series(tiny_network(), t=47),
     "horizon of 47 hours is not a whole number of days"),
    ("series", _series_a("d_elec", lambda a: a[:-1]),
     "series d_elec[a] length 47 != expected 48"),
    ("series", _series_a("d_elec", lambda a: a - 2000.0),
     "series d_elec[a] contains negative values"),
    ("series", _series_a("w_on", lambda a: np.maximum(a, 1.5)),
     "series w_on[a] potential exceeds unity (max 1.5)"),
    ("series", lambda series: dataclasses.replace(
        series, d_heat_full={"a": series.d_heat_full["a"]}),
     "series d_heat_full missing for node b"),
    ("series", lambda series: dataclasses.replace(
        series, w_on={**series.w_on, "c": series.w_on["a"]}),
     "series w_on gives node c, which is not a network node"),
    ("series", lambda series: dataclasses.replace(
        series, nuclear={**series.nuclear, "d": series.nuclear["b"],
                         "c": series.nuclear["a"]}),
     "series nuclear gives nodes d, c, which are not network nodes"),
    ("series", _replace(d_veh_full=None),
     "no vehicle demand series supplied (hourly or daily)"),
    ("costs", _replace(c_ff={"a": -1.0, "b": 4.04}),
     "cost c_ff[a] is negative"),
    ("costs", _replace(cap_tx={"a:b": -1.0}), "cost cap_tx[a:b] is negative"),
    ("costs", _replace(omv_ff=-1.0), "cost omv_ff is negative"),
    ("costs", _replace(omf_on={"a": 18.1}),
     "missing cost omf_on[b] for cap_onshore[b]"),
    ("costs", _replace(c_nuc={"a": 26.82}),
     "missing cost c_nuc[b] for nuclear energy"),
    ("params", _replace(eta_batt=1.5), "parameter eta_batt=1.5 outside (0, 1]"),
    ("params", _replace(reserve_margin=-0.1), "reserve margin must be >= 0"),
    ("params", _replace(phi_batt_min=0.3), "phi_batt_min exceeds phi_batt_max"),
    ("params", _replace(phi_batt_min=-0.1), "phi_batt_min must be >= 0"),
    ("params", _replace(p_years={"generation": 20, "storage": 0,
                                 "transmission": 20}),
     "annualization period for storage must be >= 1"),
    ("params", _replace(interest_rate=-0.01), "interest rate must be >= 0"),
    ("params", _replace(n_years=1.0),
     "n_years=1.0 inconsistent with a 48-hour horizon (more than one "
     "leap-day apart)"),
]


@pytest.mark.parametrize("part, mutate, message", VIOLATIONS,
                         ids=[message for _, _, message in VIOLATIONS])
def test_every_violation_is_reported_alone(part, mutate, message):
    net = tiny_network()
    inputs = {"network": net, "series": tiny_series(net),
              "costs": tiny_costs(net), "params": tiny_params()}
    inputs[part] = mutate(inputs[part])
    assert validate(**inputs) == [message]


def _renamed(part, old: str, new: str):
    """``part`` (network, series or costs) with node ``old`` named ``new``
    in every node list, interface and mapping key."""
    def key(k):
        return ":".join(new if p == old else p for p in k.split(":"))

    changes = {}
    for field in dataclasses.fields(part):
        value = getattr(part, field.name)
        if isinstance(value, dict):
            changes[field.name] = {key(k): v for k, v in value.items()}
        elif field.name == "nodes":
            changes["nodes"] = [dataclasses.replace(n, id=key(n.id))
                                for n in value]
        elif field.name == "interfaces":
            changes["interfaces"] = [dataclasses.replace(
                i, node_a=key(i.node_a), node_b=key(i.node_b)) for i in value]
    return dataclasses.replace(part, **changes)


@pytest.mark.parametrize("bad", ["b,1", 'b"1', "b\r1", "b\n1"])
def test_node_id_that_a_csv_field_cannot_hold_is_refused(bad):
    # The series CSVs and operations.csv write node ids as bare fields, so
    # an id holding a comma, a double quote or a line break is the one
    # violation of inputs that are otherwise whole.
    net = tiny_network()
    inputs = {"network": net, "series": tiny_series(net),
              "costs": tiny_costs(net), "params": tiny_params()}
    for part in ("network", "series", "costs"):
        inputs[part] = _renamed(inputs[part], "b", bad)
    assert validate(**inputs) == [
        f"node id {bad!r} holds a comma, a double quote or a line break, "
        "which a bare CSV field cannot hold"]


class TestScenarioConfig:
    def test_two_of_three_accepted(self):
        ScenarioConfig(mode="lcp+hve", lcp=0.4, p_heat=0.0, p_veh=0.0)
        ScenarioConfig(mode="ghg+hve", omega=0.4, p_heat=0.5, p_veh=0.5)
        ScenarioConfig(mode="ghg+lcp", omega=0.4, lcp=0.7)

    def test_wrong_combinations_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mode="lcp+hve", lcp=0.4)  # missing p
        with pytest.raises(ValueError):
            ScenarioConfig(mode="lcp+hve", lcp=0.4, p_heat=0.1, p_veh=0.1,
                           omega=0.2)  # all three pinned
        with pytest.raises(ValueError):
            ScenarioConfig(mode="ghg+lcp", omega=0.4, lcp=0.7, p_heat=0.3,
                           p_veh=0.3)
        with pytest.raises(ValueError, match="unknown mode 'min-lcoe'"):
            ScenarioConfig(mode="min-lcoe", omega=0.4)

    def test_fraction_ranges_enforced(self):
        with pytest.raises(ValueError):
            ScenarioConfig(mode="lcp+hve", lcp=1.2, p_heat=0.0, p_veh=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(mode="ghg+hve", omega=0.0, p_heat=-0.1, p_veh=0.0)

    def test_ev_window_validated(self):
        from gridplan.model import EVFlexConfig

        with pytest.raises(ValueError):
            EVFlexConfig(y_flex=0.5, h_start=20, h_end=4, h_min=4)
        with pytest.raises(ValueError):
            EVFlexConfig(y_flex=0.5, h_start=0, h_end=23, h_min=0)
        EVFlexConfig(y_flex=0.5, h_start=0, h_end=23, h_min=4)
