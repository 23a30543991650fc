import math
import pickle
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoisched.model import (Scenario, ScenarioError, UeClass,
                            UeConfig, Variant, replace_param, scenario_from_dict,
                            scenario_to_dict, theta_j, theta_sum, validate)


def aoi(id=1, q=0.9, p=0.7, rho=1.0):
    return UeConfig(id=id, cls=UeClass.AOI, q=q, p=p, rho=rho)


def lat_w(id=2, q=0.2, p=0.8, rho=1.0):
    return UeConfig(id=id, cls=UeClass.LATENCY, q=q, p=p, rho=rho)


def lat_c(id=2, q=0.2, p=0.8, beta=2.0):
    return UeConfig(id=id, cls=UeClass.LATENCY, q=q, p=p, beta=beta)


def thr(id=3, p=0.9, alpha=0.2):
    return UeConfig(id=id, cls=UeClass.THROUGHPUT, p=p, alpha=alpha)


def test_validate_reference_load():
    # one latency ue (q=0.2, p=0.8) plus one throughput ue (alpha=0.2, p=0.9)
    scn = Scenario(ues=(lat_w(), thr()), variant=Variant.LATENCY_WEIGHTED)
    report = validate(scn)
    assert report.load == pytest.approx(0.25 + 0.2 / 0.9, abs=1e-15)
    assert report.feasible
    assert report.zeta == pytest.approx(1 - 0.25 - 0.2 / 0.9, abs=1e-15)


def test_validate_empty_sums():
    scn = Scenario(ues=(aoi(),), variant=Variant.LATENCY_WEIGHTED)
    report = validate(scn)
    assert report.load == 0.0
    assert report.zeta == 1.0
    assert report.feasible


def test_validate_boundary_is_infeasible():
    # alpha == p makes the load exactly 1; the condition is strict
    scn = Scenario(ues=(thr(alpha=0.9, p=0.9),), variant=Variant.LATENCY_WEIGHTED)
    report = validate(scn)
    assert report.load == 1.0
    assert not report.feasible


def test_validate_is_pure():
    scn = Scenario(ues=(lat_w(), thr()), variant=Variant.LATENCY_WEIGHTED)
    assert validate(scn) == validate(scn)


def test_zeta_complements_load_exactly():
    scn = Scenario(ues=(lat_w(q=0.37, p=0.61), thr(alpha=0.21, p=0.83)),
                   variant=Variant.LATENCY_WEIGHTED)
    report = validate(scn)
    assert report.zeta + report.load == pytest.approx(1.0, abs=2e-16)


@given(a1=st.floats(0.01, 0.5), a2=st.floats(0.01, 0.5))
def test_load_monotone_in_alpha(a1, a2):
    lo, hi = sorted((a1, a2))
    mk = lambda a: Scenario(ues=(lat_w(), thr(alpha=a)), variant=Variant.LATENCY_WEIGHTED)
    assert validate(mk(hi)).load >= validate(mk(lo)).load
    assert validate(mk(hi)).zeta <= validate(mk(lo)).zeta


@given(q1=st.floats(0.01, 0.99), q2=st.floats(0.01, 0.99))
def test_load_monotone_in_q(q1, q2):
    lo, hi = sorted((q1, q2))
    mk = lambda q: Scenario(ues=(lat_w(q=q),), variant=Variant.LATENCY_WEIGHTED)
    assert validate(mk(hi)).load >= validate(mk(lo)).load


def test_structural_errors_are_not_feasibility_reports():
    dup = Scenario(ues=(aoi(id=1), lat_w(id=1)), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError, match="duplicate"):
        validate(dup)
    bad_q = Scenario(ues=(aoi(q=1.5),), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError, match="q must be"):
        validate(bad_q)
    empty = Scenario(ues=(), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError, match="at least one"):
        validate(empty)


def test_class_field_discipline():
    with pytest.raises(ScenarioError, match="beta does not apply"):
        validate(Scenario(ues=(UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9,
                                        alpha=0.2, beta=2.0),),
                          variant=Variant.LATENCY_WEIGHTED))
    with pytest.raises(ScenarioError, match="never specifies q"):
        validate(Scenario(ues=(UeConfig(id=3, cls=UeClass.THROUGHPUT, p=0.9,
                                        alpha=0.2, q=1.0),),
                          variant=Variant.LATENCY_WEIGHTED))
    # weighted scenarios need rho on latency ues, constrained need beta
    with pytest.raises(ScenarioError, match="rho"):
        validate(Scenario(ues=(lat_c(),), variant=Variant.LATENCY_WEIGHTED))
    with pytest.raises(ScenarioError, match="beta"):
        validate(Scenario(ues=(lat_w(),), variant=Variant.LATENCY_CONSTRAINED))
    with pytest.raises(ScenarioError, match="beta must be at least 1"):
        validate(Scenario(ues=(lat_c(beta=0.9),), variant=Variant.LATENCY_CONSTRAINED))
    # beta == 1 is the boundary (every packet served in its arrival slot)
    validate(Scenario(ues=(lat_c(beta=1.0),), variant=Variant.LATENCY_CONSTRAINED))


@pytest.mark.parametrize("value, accepted", [
    (0.5, True), (1, True), (np.float64(0.5), True), (Fraction(1, 2), True),
    (Decimal("0.5"), False), (True, False), (math.nan, False), (math.inf, False)],
    ids=repr)
@pytest.mark.parametrize("field", ["p", "q", "rho"])
def test_number_fields_take_finite_reals_but_not_bools(field, value, accepted):
    scenario = replace_param(Scenario(ues=(aoi(),), variant=Variant.LATENCY_WEIGHTED), 1,
                             **{field: value})
    if accepted:
        validate(scenario)
    else:
        with pytest.raises(ScenarioError,
                           match=re.escape(f"ue 1: {field} must be a finite number, got {value!r}")):
            validate(scenario)


def test_theta_sum_direct_values():
    scn = Scenario(ues=(lat_c(beta=2.0),), variant=Variant.LATENCY_CONSTRAINED)
    assert theta_sum(scn) == pytest.approx(0.75, abs=1e-12)
    tight = Scenario(ues=(lat_c(beta=1.2),), variant=Variant.LATENCY_CONSTRAINED)
    assert theta_sum(tight) == pytest.approx((0.2 + 0.8 / 1.2) / 0.8, abs=1e-12)
    assert theta_sum(tight) > 1.0


def test_theta_sum_limit_is_utilisation():
    assert theta_j(0.2, 0.8, 1e12) == pytest.approx(0.25, rel=1e-9)


def test_theta_sum_wrong_variant():
    scn = Scenario(ues=(lat_w(),), variant=Variant.LATENCY_WEIGHTED)
    with pytest.raises(ScenarioError):
        theta_sum(scn)


def test_validate_reports_rd_precheck():
    ok = Scenario(ues=(lat_c(beta=2.0),), variant=Variant.LATENCY_CONSTRAINED)
    report = validate(ok)
    assert report.theta_sum == pytest.approx(0.75)
    assert report.rd_feasible is True
    tight = Scenario(ues=(lat_c(beta=1.2),), variant=Variant.LATENCY_CONSTRAINED)
    assert validate(tight).rd_feasible is False


def test_scenario_dict_round_trip():
    scn = Scenario(ues=(aoi(), lat_c(), thr()), variant=Variant.LATENCY_CONSTRAINED)
    assert scenario_from_dict(scenario_to_dict(scn)) == scn


def test_scenario_dict_rejects_unknown_keys():
    doc = scenario_to_dict(Scenario(ues=(aoi(),), variant=Variant.LATENCY_WEIGHTED))
    doc["ue"][0]["extra"] = 1
    with pytest.raises(ScenarioError, match="unknown keys.*extra"):
        scenario_from_dict(doc)
    doc = {"variant": "latency_weighted", "ue": [{"id": 1, "class": "aoi",
                                                  "q": 0.9, "p": 0.7, "rho": 1.0}],
           "bogus": True}
    with pytest.raises(ScenarioError, match="top-level"):
        scenario_from_dict(doc)


def test_scenario_layout_is_derived_once_and_is_not_a_field():
    scn = Scenario(ues=(thr(id=3), lat_c(id=2), aoi(id=1)), variant=Variant.LATENCY_CONSTRAINED)
    fresh = Scenario(ues=scn.ues, variant=scn.variant)
    assert [u.id for u in scn.positions] == [1, 2, 3]
    assert scn.positions is scn.positions and scn.aoi_ues is scn.aoi_ues
    assert (scn.aoi_ues, scn.latency_ues, scn.throughput_ues) == ((aoi(),), (lat_c(),), (thr(),))
    # the derived layout takes no part in equality, hashing or repr
    assert scn == fresh and hash(scn) == hash(fresh) and repr(scn) == repr(fresh)
    # a replaced scenario derives its own, and a pickled one, as sweep's
    # workers receive it, is equal and lays out the same
    swapped = replace(scn, ues=scn.ues[:2])
    assert [u.id for u in swapped.positions] == [2, 3] and swapped.aoi_ues == ()
    back = pickle.loads(pickle.dumps(scn))
    assert back == scn and hash(back) == hash(scn)
    assert back.positions == scn.positions and back.throughput_ues == scn.throughput_ues


def test_replace_param():
    scn = Scenario(ues=(aoi(), lat_c(), thr()), variant=Variant.LATENCY_CONSTRAINED)
    swapped = replace_param(scn, 3, alpha=0.5)
    assert swapped.throughput_ues[0].alpha == 0.5
    assert swapped.aoi_ues == scn.aoi_ues
    with pytest.raises(ScenarioError):
        replace_param(scn, 99, alpha=0.5)
