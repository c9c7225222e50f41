"""Wire formats: JSON round trips and report shapes."""

import json
import math

import numpy as np
import pytest

from jointmeas import (
    BlochEffect,
    FeasibilityProblem,
    HermitianOperator,
    Observable,
    SimpleQubitObservable,
    boundary_joint,
    decide,
    joint_observable_order_audit,
    observable_from_json,
    observable_to_json,
    operator_from_json,
    operator_to_json,
    partition_compatibility_matrix,
    partition_paradox_audit,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
L = 1.0 / math.sqrt(2.0)


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def test_operator_json_is_plain_data():
    h = HermitianOperator(np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]]))
    data = operator_to_json(h)
    assert set(data) == {"dim", "re", "im"}
    json.dumps(data)  # all plain types
    back = operator_from_json(data)
    assert np.allclose(back.matrix, h.matrix, atol=0)


def test_operator_json_shape_mismatch():
    h = HermitianOperator(np.eye(2))
    data = operator_to_json(h)
    data["dim"] = 3
    with pytest.raises(ValueError, match="do not match dim"):
        operator_from_json(data)


def test_observable_round_trip_plain_labels():
    obs = unbiased(0.7 * EX)
    data = observable_to_json(obs)
    assert set(data) == {"outcomes", "effects"}
    back = observable_from_json(json.loads(json.dumps(data)))
    assert isinstance(back, Observable)
    assert back.outcomes == obs.outcomes
    for x in obs.outcomes:
        assert np.allclose(back.effects[x].matrix, obs.effects[x].matrix, atol=0)


def test_product_observable_round_trip_keeps_tuple_labels():
    g = boundary_joint(L * EX, L * EY)
    data = observable_to_json(g)
    assert data["parents"] == [["0", "1"], ["0", "1"]]
    assert set(data["effects"]) == {"00", "01", "10", "11"}
    back = observable_from_json(json.loads(json.dumps(data)))
    assert back.parents == g.parents
    for key, e in g.effects.items():
        assert np.allclose(back.effects[key].matrix, e.matrix, atol=0)


def test_observable_json_missing_effect():
    data = observable_to_json(unbiased(0.7 * EX))
    del data["effects"]["1"]
    with pytest.raises(ValueError, match="missing effect"):
        observable_from_json(data)


@pytest.mark.parametrize("outcomes, product", [
    ([["0"], "1"], False),  # was read as a product label beside a plain one
    ("01", False),  # was read as its characters "0" and "1"
    ([0, 1], False),
    (["00", "01", "10", "11"], True),
], ids=["label-in-a-list", "string", "numbers", "product-with-plain-labels"])
def test_observable_json_refuses_outcome_labels_of_the_wrong_shape(outcomes, product):
    obs = boundary_joint(L * EX, L * EY) if product else unbiased(0.7 * EX)
    data = {**observable_to_json(obs), "outcomes": outcomes}
    with pytest.raises(ValueError, match="outcomes must be a list of"):
        observable_from_json(data)


def test_feasibility_report_json_contract():
    a, b = unbiased(0.8 * EX), unbiased(0.8 * EY)
    report = decide(FeasibilityProblem((a, b)))
    data = report.to_json()
    assert set(data) == {
        "verdict", "residual", "gap", "iterations", "reason", "margin", "witness", "certificate"
    }
    assert data["verdict"] == "INFEASIBLE"
    assert data["reason"] == "eq3"
    assert data["witness"] is None
    assert data["certificate"] is None  # only a dual-certificate verdict has one
    assert data["gap"] is None  # and only it has a barrier gap
    json.dumps(data)

    feasible = decide(FeasibilityProblem((unbiased(0.5 * EX), unbiased(0.5 * EY))))
    data = feasible.to_json()
    assert data["verdict"] == "FEASIBLE"
    assert data["witness"] is not None
    back = observable_from_json(data["witness"])
    assert set(back.effects) == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}
    json.dumps(data)


def test_order_audit_json_keys():
    a_obs, b_obs = unbiased(L * EX), unbiased(L * EY)
    g = boundary_joint(L * EX, L * EY)
    audit = joint_observable_order_audit(g, a_obs, b_obs)
    data = audit.to_json()
    assert set(data) == {"cells", "all_greatest", "all_maximal", "uniqueness_refuted"}
    assert set(data["cells"]) == {"0,0", "0,1", "1,0", "1,1"}
    cell = data["cells"]["1,1"]
    assert set(cell) == {"in_lb", "greatest_refuted", "violation", "maximality"}
    assert cell["greatest_refuted"] is True
    assert cell["maximality"]["verdict"] == "MAXIMAL_WITHIN"
    assert set(cell["maximality"]) == {"verdict", "trace_gain", "eps", "iterations"}
    json.dumps(data)


def test_partition_matrix_json_keys():
    mat = partition_compatibility_matrix(unbiased(EZ), unbiased(EX))
    data = mat.to_json()
    assert set(data) == {"rows", "cols", "cells", "all_feasible", "undetermined"}
    assert data["rows"] == ["0"] and data["cols"] == ["0"]
    assert set(data["cells"]) == {"0;0"}
    assert data["cells"]["0;0"]["verdict"] == "INFEASIBLE"
    json.dumps(data)


def test_paradox_report_json_keys():
    g = boundary_joint(L * EX, L * EY)
    f = boundary_joint(L * EY, L * EZ)
    report = partition_paradox_audit(g, f)
    data = report.to_json()
    assert set(data) == {"matrix", "global", "paradox"}
    assert data["paradox"] is True
    assert data["global"]["reason"] == "dual-certificate"
    # one operator per (axis, outcome) of the two joints, keyed "<axis>:<outcome key>"
    assert set(data["global"]["certificate"]) == {
        f"{i}:{k}" for i in (0, 1) for k in ("00", "01", "10", "11")
    }
    # 7x7 nontrivial partitioning grid, keys are subset-key pairs
    assert len(data["matrix"]["cells"]) == 49
    assert all(";" in k for k in data["matrix"]["cells"])
    json.dumps(data)
