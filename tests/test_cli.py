"""Command-line contract: exit codes, JSON output, env tolerance."""

import contextlib
import copy
import dataclasses
import io
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import jointmeas
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointmeas import (
    REGISTRY,
    BlochEffect,
    HermitianOperator,
    Observable,
    ProductObservable,
    SimpleQubitObservable,
    boundary_joint,
    joint_from_cell,
    observable_to_json,
    run_scenario,
)
from jointmeas.cli import main

from conftest import spread_axes

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])
L = 1.0 / math.sqrt(2.0)

SCENARIOS = (
    "busch-boundary",
    "pairwise-not-triple",
    "unique-not-greatest",
    "no-maximal-family",
    "partition-paradox",
    "commuting-sharp-product",
)


def unbiased(vec) -> Observable:
    return SimpleQubitObservable(BlochEffect(1.0, vec)).as_observable()


def dump(tmp_path, name, obs) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(observable_to_json(obs)))
    return str(path)


@pytest.fixture()
def pair_files(tmp_path):
    a = dump(tmp_path, "a.json", unbiased(0.8 * EX))
    b = dump(tmp_path, "b.json", unbiased(0.8 * EY))
    return a, b


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_list_names_all_scenarios(capsys):
    assert main(["run", "--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    assert "[" in out  # every line carries a citation tag


def test_run_unknown_scenario_is_parse_error(capsys):
    assert main(["run", "no-such-thing"]) == 2
    err = capsys.readouterr().err
    assert "busch-boundary" in err  # the error lists what exists


def test_run_without_name_is_parse_error(capsys):
    assert main(["run"]) == 2


def test_run_busch_boundary_passes_and_writes_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["run", "busch-boundary", "--json-out", str(out_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    on_stdout = json.loads(captured.out)
    on_disk = json.loads(out_path.read_text())
    assert on_stdout == on_disk
    assert on_stdout["passed"] is True
    assert all(e["passed"] for e in on_stdout["expectations"])


def test_paradox_certificate_rechecks_from_the_json_output(tmp_path, capsys):
    # the global INFEASIBLE of partition-paradox can be re-checked from the
    # CLI output alone, at its 12-digit rounding: adding |low| I to axis 0's
    # rows, with low the least cell eigenvalue, makes every cell positive and
    # adds d |low| to <Y, A>; if that stays negative, no joint of G and F exists
    out = tmp_path / "paradox.json"
    assert main(["run", "partition-paradox", "--json-out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())["report"]["audit"]["global"]
    assert report["verdict"] == "INFEASIBLE" and report["reason"] == "dual-certificate"
    y = {
        key: np.array(op["re"]) + 1j * np.array(op["im"])
        for key, op in report["certificate"].items()
    }
    parents = (boundary_joint(L * EX, L * EY), boundary_joint(L * EY, L * EZ))

    def row(i, x):
        return y[f"{i}:{''.join(x)}"]

    low = min(
        np.linalg.eigvalsh(sum(row(i, x) for i, x in enumerate(z)))[0]
        for z in itertools.product(*(p.outcomes for p in parents))
    )
    value = sum(
        np.trace(row(i, x) @ p.effects[x].matrix).real
        for i, p in enumerate(parents)
        for x in p.outcomes
    )
    assert value + 2 * max(0.0, -low) < 0.0
    assert -value == pytest.approx(report["margin"], rel=1e-9)


def test_run_precondition_violation_exits_3(capsys):
    code = main(["run", "no-maximal-family", "--beta", "0.9"])
    captured = capsys.readouterr()
    assert code == 3
    assert "precondition failed" in captured.err


def test_run_no_maximal_family_passes_where_the_old_bad_gamma_lay_in_the_interval(capsys):
    # gamma in [0.1, 0.455] here: a bad_gamma of 0.33 was a valid member,
    # so the scenario's own rejection check failed (exit 1)
    assert main(["run", "no-maximal-family", "--anorm", "0.3", "--beta", "0.6"]) == 0
    assert json.loads(capsys.readouterr().out)["parameters"]["bad_gamma"] == 0.75


def test_no_maximal_family_passes_at_admissible_points():
    # every gamma interval lies inside (0, 1/2), so the default bad_gamma is
    # refused for every admissible (anorm, beta)
    rng = np.random.default_rng(7)
    for _ in range(12):
        anorm = float(rng.uniform(0.02, 0.98))
        half_gap = 0.5 * (1.0 - anorm**2)
        beta = float(rng.uniform(1.02 * half_gap, 1.98 * half_gap))
        report = run_scenario("no-maximal-family", {"anorm": anorm, "beta": beta})
        assert report.passed, (anorm, beta, [e.name for e in report.expectations if not e.passed])


def test_no_maximal_family_probes_each_members_corner_cell():
    # the (1,1) cell of member gamma has room gamma_hi - gamma in
    # lb(A(1), B(1)): every member but the top one is not maximal there
    report = run_scenario("no-maximal-family")
    assert report.passed
    exps = {e.name: e for e in report.expectations}
    verdicts = [exps[f"corner-verdict-{k}"].observed for k in range(5)]
    assert verdicts == ["NOT_MAXIMAL"] * 4 + ["MAXIMAL_WITHIN"]
    members = report.payload["members"]
    for row in members:
        assert row["traces"]["1,1"] == pytest.approx(row["gamma"], abs=1e-12)
        assert sum(row["traces"].values()) == pytest.approx(2.0, abs=1e-12)
    assert [row["corner_gain"] for row in members] == pytest.approx([0.24, 0.18, 0.12, 0.06, 0.0], abs=1e-9)


def test_run_pairwise_not_triple_across_both_thresholds(capsys):
    # the pairs part at 1/sqrt(2) and the triple at 1/sqrt(3); each run checks
    # its verdicts against eq3 and eq6
    for l in np.linspace(0.50, 0.76, 14):
        assert main(["run", "pairwise-not-triple", f"--l={l:.12g}"]) == 0, l
        report = json.loads(capsys.readouterr().out)["report"]["report"]
        pairs = {r["verdict"] for r in report["pairs"].values()}
        assert pairs == {"FEASIBLE" if l < 1.0 / math.sqrt(2.0) else "INFEASIBLE"}, l
        assert report["global"]["verdict"] == ("FEASIBLE" if l < 1.0 / math.sqrt(3.0) else "INFEASIBLE"), l


def test_commuting_sharp_product_audits_the_product_joint():
    report = run_scenario("commuting-sharp-product")
    assert report.passed
    assert {"greatest-not-refuted", "all-maximal", "uniqueness-not-refuted"} <= {
        e.name for e in report.expectations
    }
    audit = report.payload["audit"]
    assert audit["all_greatest"] and audit["all_maximal"] and not audit["uniqueness_refuted"]


# ---------------------------------------------------------------------------
# check: validate
# ---------------------------------------------------------------------------


def test_check_validate_accepts_good_observable(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    assert main(["check", "validate", a, "--expect", "valid"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "validate"
    assert data["report"]["passed"] is True


def test_check_validate_rejects_broken_observable(tmp_path, capsys):
    eye = np.eye(2)
    broken = Observable(
        ("0", "1"),
        {"0": HermitianOperator(0.6 * eye), "1": HermitianOperator(0.6 * eye)},
    )
    path = dump(tmp_path, "broken.json", broken)
    assert main(["check", "validate", path]) == 3
    assert "validation failed" in capsys.readouterr().err


def test_check_validate_wrong_arity(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    assert main(["check", "validate", a, a]) == 2


# ---------------------------------------------------------------------------
# check: jm-pair / jm-set
# ---------------------------------------------------------------------------


def test_check_jm_pair_verdict_and_expectations(pair_files, capsys):
    a, b = pair_files
    assert main(["check", "jm-pair", a, b, "--expect", "INFEASIBLE"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["report"]["verdict"] == "INFEASIBLE"
    assert data["report"]["reason"] == "eq3"

    assert main(["check", "jm-pair", a, b, "--expect", "FEASIBLE"]) == 1
    assert "expectation failed" in capsys.readouterr().err


def test_check_jm_pair_missing_file(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    assert main(["check", "jm-pair", a, str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_jm_pair_bad_payload(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "jm-pair", a, str(bad)]) == 2

    not_obs = tmp_path / "not_obs.json"
    not_obs.write_text(json.dumps({"outcomes": ["0"]}))
    assert main(["check", "jm-pair", a, str(not_obs)]) == 2
    assert "not a valid observable" in capsys.readouterr().err


_MALFORMED = {
    # JSON reads 1e999 as inf; a dim must be an integer
    "infinite-dim": lambda good: good.replace('"dim": 2', '"dim": 1e999', 1).encode(),
    "fractional-dim": lambda good: good.replace('"dim": 2', '"dim": 2.7', 1).encode(),
    "deep-nesting": lambda good: b"[" * 200_000,
    # an integer entry too large for a float raises OverflowError
    "huge-entry": lambda good: re.sub(r'"re": \[\[[^,]*', '"re": [[1' + "0" * 400, good, count=1).encode(),
    "not-utf-8": lambda good: good.replace('"0"', '"\xe9"', 1).encode("latin-1"),
    # found by the fuzz below: the reader ignored a product's outcome list
    # beyond its lookups, and so a repeated outcome, and passed validate
    "product-repeats-an-outcome": lambda good: json.dumps(
        {**observable_to_json(_PRODUCT), "outcomes": [["a", "0"], ["a", "1"], ["b", "0"], ["b", "1"], ["a", "0"]]}
    ).encode(),
    # found by the fuzz below: 2 x 1e308 overflows in the symmetrization, so
    # an imaginary diagonal passed the asymmetry check (as NaN) and validate,
    # and a real one ended in an eigensolver traceback
    "overflowing-imaginary-diagonal": lambda good: good.replace('"im": [[0.0', '"im": [[1e308', 1).encode(),
    "overflowing-real-diagonal": lambda good: re.sub(r'"re": \[\[[^,]*', '"re": [[1e308', good, count=1).encode(),
    # found by the fuzz below: a plain label wrapped in a list was read as a
    # product label, and a string of outcomes as its characters; both passed
    # validate
    "label-wrapped-in-a-list": lambda good: good.replace('["0", "1"]', '[["0"], "1"]', 1).encode(),
    "outcomes-as-a-string": lambda good: good.replace('["0", "1"]', '"01"', 1).encode(),
}


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_check_validate_refuses_a_malformed_file_as_a_parse_error(kind, tmp_path, capsys):
    good = json.dumps(observable_to_json(unbiased(0.5 * EX)))
    path = tmp_path / "bad.json"
    path.write_bytes(_MALFORMED[kind](good))
    assert main(["check", "validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def _nodes(node, path=()):
    """(path, value) of every node of a JSON document, the document first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_PRODUCT = ProductObservable(
    (("a", "b"), ("0", "1")),
    {z: HermitianOperator(0.25 * np.eye(2)) for z in itertools.product("ab", "01")},
)
# a qubit, a three-outcome qutrit and a product on two factors, each a POVM
_DOCUMENTS = [
    observable_to_json(unbiased(0.5 * EX)),
    observable_to_json(Observable(("0", "1", "2"), {x: HermitianOperator(np.eye(3) / 3) for x in "012"})),
    observable_to_json(_PRODUCT),
]
_WRONG_TYPES = [None, "x", [], {}, {"a": 1}]
_BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 10**400]


@st.composite
def _mutated_files(draw):
    """The bytes of a valid observable file with one mutation that makes it
    no POVM or no observable file at all."""
    doc = draw(st.sampled_from(_DOCUMENTS))
    paths = [p for p, _ in _nodes(doc)]
    numbers = [p for p, v in _nodes(doc) if p and p[-1] == "dim" or len(p) > 3 and p[2] in ("re", "im")]
    kind = draw(st.sampled_from(["type", "number", "nesting", "joined", "encoding", "duplicate", "parents"]))
    if kind == "type":
        doc = _replaced(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(_WRONG_TYPES)))
    elif kind == "number":
        doc = _replaced(doc, draw(st.sampled_from(numbers)), draw(st.sampled_from(_BAD_NUMBERS)))
    elif kind == "nesting":
        path = draw(st.sampled_from(paths))
        value = dict(_nodes(doc))[path]
        for _ in range(draw(st.integers(1, 3))):
            value = [value]
        doc = _replaced(doc, path, value)
    elif kind == "joined":
        # the outcome labels run together into one string: "01" for ["0", "1"]
        joined = "".join(x if isinstance(x, str) else "".join(x) for x in doc["outcomes"])
        doc = _replaced(doc, ("outcomes",), joined)
    elif kind == "encoding":
        # the label "0" renamed to a non-ASCII one, in an encoding other than UTF-8
        text = json.dumps(doc).replace('"0"', '"\u00e9"')
        return text.encode(draw(st.sampled_from(["latin-1", "utf-16", "utf-32", "utf-8-sig", "cp1252"])))
    elif kind == "duplicate":
        outcomes = doc["outcomes"]
        doc = _replaced(doc, ("outcomes",), outcomes + [outcomes[draw(st.integers(0, len(outcomes) - 1))]])
    else:
        factors = copy.deepcopy(doc.get("parents", [["0", "1"], ["0", "1"]]))
        i = draw(st.integers(0, len(factors) - 1))
        change = draw(st.sampled_from(["drop-label", "add-label", "rename", "drop-factor", "add-factor", "swap"]))
        if change == "drop-label":
            factors[i].pop()
        elif change in ("add-label", "rename"):
            factors[i][-1:] = ["z"] if change == "rename" else [factors[i][-1], "z"]
        elif change == "drop-factor":
            factors.pop(i)
        else:
            factors = factors[::-1] if change == "swap" else factors + [["z"]]
        doc = _replaced(doc, ("parents",), factors)
    return json.dumps(doc).encode()


@settings(max_examples=150)
@given(_mutated_files())
def test_check_refuses_a_mutated_file_with_exit_2_or_3(tmp_path_factory, data):
    # every check reads the file; a reader defect would end in a traceback
    # (exit 1 from the console script), not in exit 2 or 3
    folder = tmp_path_factory.mktemp("fuzz")
    bad, good, joint = folder / "bad.json", folder / "good.json", folder / "joint.json"
    bad.write_bytes(data)
    good.write_text(json.dumps(_DOCUMENTS[0]))
    joint.write_text(json.dumps(_DOCUMENTS[2]))
    for argv in (
        ["validate", bad],
        ["jm-pair", bad, good],
        ["jm-set", good, bad, good],
        ["order-audit", bad, good, good],
        ["order-audit", joint, bad, good],
        ["partitions", bad, good],
        ["partitions", good, bad],
    ):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["check", *map(str, argv)])
        assert code in (2, 3), (argv[0], code, err.getvalue())


def test_every_fuzzed_document_is_a_valid_file_before_its_mutation(tmp_path, capsys):
    for k, doc in enumerate(_DOCUMENTS):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "validate", str(path), "--expect", "valid"]) == 0


def test_check_jm_set_refuses_twelve_qubit_files_over_the_size_bound(tmp_path, capsys, monkeypatch):
    # the global family would need 16333 Newton variables; the 66 pairs are
    # decided first
    def refuse(*_, **__):
        raise AssertionError("allocated before the size bound")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    files = [dump(tmp_path, f"p{i:02d}.json", unbiased(0.3 * v)) for i, v in enumerate(spread_axes(12))]
    assert main(["check", "jm-set", *files]) == 3
    err = capsys.readouterr().err
    assert err == "precondition failed: the barrier route needs 16333 variables, above its bound 4096\n"


def test_check_jm_set_triple_reports_pairs_and_global(tmp_path, capsys):
    files = [
        dump(tmp_path, f"p{i}.json", unbiased(0.6 * v))
        for i, v in enumerate((EX, EY, EZ))
    ]
    code = main(
        ["check", "jm-set", *files, "--expect", "INFEASIBLE"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["report"]) == {"pairs", "global"}
    assert len(data["report"]["pairs"]) == 3
    assert data["report"]["global"]["reason"] == "eq6"


def test_check_commands_reject_a_non_povm_input(tmp_path, capsys):
    eye = np.eye(2)
    short = Observable(
        ("0", "1"),
        {"0": HermitianOperator(0.5 * eye), "1": HermitianOperator(0.2 * eye)},
    )
    bad = dump(tmp_path, "short.json", short)
    a = dump(tmp_path, "a.json", unbiased(0.6 * EX))
    b = dump(tmp_path, "b.json", unbiased(0.6 * EY))
    for argv in (
        ["jm-set", a, b, bad],
        ["jm-pair", a, bad],
        ["partitions", bad, b],
        ["order-audit", bad, a, b],
    ):
        assert main(["check", *argv]) == 3
        err = capsys.readouterr().err
        assert "short.json is not a POVM" in err
        assert "normalization residual 3.000e-01" in err
    # a parse error in another file still comes first
    assert main(["check", "jm-pair", bad, str(tmp_path / "nope.json")]) == 2


def test_check_jm_pair_decides_a_qubit_input_that_passes_validate_at_tol(tmp_path, capsys):
    # ||a|| = 1 + 1e-7 puts the least eigenvalue of (1, a) at -5e-8: validate
    # passes it at the default --tol 1e-7 but the criteria's input check does
    # not, and this pair used to exit 3 with "(1, a) is not a valid effect".
    # The barrier route proves it INFEASIBLE: an effect with a negative
    # eigenvalue is the marginal of no joint with positive cells
    a = dump(tmp_path, "a.json", unbiased((1.0 + 1e-7) * EX))
    b = dump(tmp_path, "b.json", unbiased(0.5 * EY))
    assert main(["check", "jm-pair", a, b, "--expect", "INFEASIBLE"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["reason"] == "dual-certificate"
    assert report["margin"] > 0.0 and report["certificate"]


def test_check_jm_pair_decides_a_pair_whose_newton_system_turns_singular(tmp_path, capsys):
    # the barrier's Newton system turns singular before its gap closes; the
    # pair used to exit 3 with "precondition failed: Singular matrix"
    forms = [
        (1.000000001453275, (0.12458641016622927, 0.05603677882002613, 0.99062510675941)),
        (1.9999999888719222, (8.19216528821268e-09, 4.463982219176062e-09, -1.075713518261523e-08)),
    ]
    files = [
        dump(tmp_path, f"{name}.json", SimpleQubitObservable(BlochEffect(al, np.array(a))).as_observable())
        for name, (al, a) in zip("ab", forms)
    ]
    assert main(["check", "jm-pair", *files, "--expect", "FEASIBLE"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["verdict"] == "FEASIBLE" and report["witness"] is not None


# ---------------------------------------------------------------------------
# check: order-audit / partitions
# ---------------------------------------------------------------------------


def test_check_order_audit_boundary_joint(tmp_path, capsys):
    g = dump(tmp_path, "g.json", boundary_joint(L * EX, L * EY))
    a = dump(tmp_path, "ea.json", unbiased(L * EX))
    b = dump(tmp_path, "eb.json", unbiased(L * EY))
    code = main(
        ["check", "order-audit", g, a, b, "--expect", "greatest-refuted"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["report"]["all_greatest"] is False
    assert data["report"]["all_maximal"] is True


def test_check_order_audit_answers_for_a_joint_that_passes_validate(tmp_path, capsys):
    # the cell diag(-1e-5, 0) passes validate at --tol 1e-4 but is no effect:
    # the audit reports it outside lb(A, B) instead of exiting 3, and the
    # member cell 0,0 is refuted
    ea = SimpleQubitObservable(BlochEffect(0.6, 0.2 * EZ)).as_observable()
    eb = SimpleQubitObservable(BlochEffect(0.6, 0.2 * EX)).as_observable()
    g = dump(tmp_path, "g.json", joint_from_cell(ea, eb, np.diag([-1e-5, 0.0]), "1", "1"))
    a, b = dump(tmp_path, "ea.json", ea), dump(tmp_path, "eb.json", eb)
    assert main(["check", "order-audit", g, a, b, "--tol", "1e-4", "--expect", "greatest-refuted"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["cells"]["1,1"]["in_lb"] is False
    assert report["cells"]["0,0"]["greatest_refuted"] is True
    assert report["all_greatest"] is False


def test_check_order_audit_outside_lb_is_not_a_refutation(tmp_path, capsys):
    # A = B = {I, 0, 0}; four cells of +-1e-5 |1><1| pass validate at 1e-4
    # but lie outside lb(0, 0), and no cell is refuted
    labels = ("0", "1", "2")
    zero, proj = np.zeros((2, 2)), np.diag([0.0, 1.0])
    parent = Observable(labels, {x: HermitianOperator(np.eye(2) if x == "0" else zero) for x in labels})
    cells = {(x, y): zero for x in labels for y in labels}
    cells[("0", "0")] = np.eye(2)
    cells[("1", "1")] = cells[("2", "2")] = -1e-5 * proj
    cells[("1", "2")] = cells[("2", "1")] = 1e-5 * proj
    joint = ProductObservable((labels, labels), {k: HermitianOperator(m) for k, m in cells.items()})
    g, a = dump(tmp_path, "g.json", joint), dump(tmp_path, "a.json", parent)
    assert main(["check", "order-audit", g, a, a, "--tol", "1e-4", "--expect", "outside-lb"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert not any(cell["greatest_refuted"] for cell in report["cells"].values())
    assert main(["check", "order-audit", g, a, a, "--tol", "1e-4", "--expect", "greatest-refuted"]) == 1


def test_check_order_audit_rejects_a_plain_observable_as_joint(tmp_path, capsys):
    g = dump(tmp_path, "g.json", unbiased(L * EZ))
    a = dump(tmp_path, "ea.json", unbiased(L * EX))
    b = dump(tmp_path, "eb.json", unbiased(L * EY))
    assert main(["check", "order-audit", g, a, b]) == 3
    assert "joint observable of two parents" in capsys.readouterr().err


def test_check_partitions_matrix(tmp_path, capsys):
    a = dump(tmp_path, "sz.json", unbiased(EZ))
    b = dump(tmp_path, "sx.json", unbiased(EX))
    code = main(["check", "partitions", a, b, "--expect", "not-all-feasible"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["report"]["all_feasible"] is False


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def test_tol_flag_is_honored(pair_files, capsys):
    a, b = pair_files
    assert main(["check", "jm-pair", a, b, "--tol", "1e-5", "--expect", "INFEASIBLE"]) == 0
    capsys.readouterr()

    assert main(["check", "jm-pair", a, b, "--tol", "0"]) == 3
    assert "tol must be positive" in capsys.readouterr().err


def test_absent_tol_is_the_options_default(pair_files, capsys):
    a, b = pair_files
    outputs = []
    for extra in ([], ["--tol", "1e-7"]):
        assert main(["check", "jm-pair", a, b, *extra]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def _povm(effects) -> Observable:
    return Observable(tuple("012"[: len(effects)]), {
        str(k): HermitianOperator(e) for k, e in enumerate(effects)
    })


@pytest.fixture()
def fourier_pair_files(tmp_path):
    """The sharp Z and Fourier bases in d = 3: not jointly measurable."""
    fourier = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
    z = dump(tmp_path, "z.json", _povm([np.diag(row) for row in np.eye(3)]))
    x = dump(tmp_path, "x.json", _povm([np.outer(f, f.conj()) for f in fourier.T]))
    return z, x


def test_an_infinite_tolerance_is_a_precondition_error(tmp_path, fourier_pair_files, capsys):
    # at tol = inf, validate passed these effects (they sum to diag(2, 5, 0)),
    # and jm-pair called the sharp Fourier pair in d = 3 FEASIBLE with a
    # witness that fails validate
    big = dump(tmp_path, "big.json", _povm([np.diag([2.0, 0.0, 0.0]), np.diag([0.0, 5.0, 0.0])]))
    z, x = fourier_pair_files
    assert main(["check", "validate", big]) == 3
    assert main(["check", "jm-pair", z, x, "--expect", "INFEASIBLE"]) == 0
    capsys.readouterr()
    for argv in (["check", "validate", big], ["check", "jm-pair", z, x], ["run", "busch-boundary"]):
        assert main([*argv, "--tol", "inf"]) == 3
        assert "tol must be positive and finite" in capsys.readouterr().err


def test_a_loose_tolerance_does_not_make_the_fourier_pair_feasible(fourier_pair_files, capsys):
    # --tol 0.12 used to accept the barrier route's start point (residual
    # 0.111) as a witness; tol now loosens only the barrier's stopping gap
    z, x = fourier_pair_files
    assert main(["check", "jm-pair", z, x, "--tol", "0.12"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["verdict"] != "FEASIBLE"


def test_run_rejects_a_non_numeric_tolerance(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "busch-boundary", "--tol", "abc"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_reports_round_to_twelve_significant_digits(pair_files, capsys):
    a, b = pair_files
    main(["check", "jm-pair", a, b])
    data = json.loads(capsys.readouterr().out)
    margin = data["report"]["margin"]
    assert margin == float(f"{margin:.12g}")
    assert margin == pytest.approx(1.6 * math.sqrt(2.0) - 2.0, abs=1e-11)


def test_same_input_gives_identical_output(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    b = dump(tmp_path, "b.json", unbiased(0.5 * EY))
    argv = ["check", "jm-pair", a, b]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_run_accepts_the_benchmark_flags(name, tmp_path):
    # the benchmark runs every scenario as a user would, with these flags
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(jointmeas.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "jointmeas.cli", "run", name, "--seed", "7", "--json-out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["passed"] is True


@pytest.mark.parametrize("dim", ["0", "1"])
def test_run_commuting_sharp_product_rejects_dim_below_two(dim):
    # a subprocess with a timeout, so that a hang fails instead of stalling the suite
    env = {**os.environ, "PYTHONPATH": str(Path(jointmeas.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "jointmeas.cli", "run", "commuting-sharp-product", "--dim", dim],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert "dim must lie in [2, 64]" in proc.stderr


@pytest.mark.parametrize("dim", ["65", "1000000"])
def test_run_commuting_sharp_product_refuses_dim_above_the_cap_before_drawing(dim, monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr("jointmeas.sampling.random_unitary", lambda *args: drawn.append(args))
    assert main(["run", "commuting-sharp-product", "--dim", dim]) == 3
    assert "dim must lie in [2, 64]" in capsys.readouterr().err
    assert drawn == []


@pytest.mark.parametrize("argv, code", [
    (["busch-boundary", "--l", "inf"], 2),
    (["pairwise-not-triple", "--l", "nan"], 2),
    (["no-maximal-family", "--bad-gamma=-inf"], 2),
    # outside the declared range, refused before the runner starts
    (["busch-boundary", "--l", "1e200"], 3),
    (["pairwise-not-triple", "--l", "1e200"], 3),
    (["busch-boundary", "--l", "1.5"], 3),
    (["partition-paradox", "--l", "1e200"], 3),
    (["no-maximal-family", "--anorm", "1e200"], 3),
    (["commuting-sharp-product", "--seed", "-1"], 3),
    # refused by the cell check before its length overflows, as gamma = 5 is
    (["no-maximal-family", "--bad-gamma", "1e160"], 0),
    # a pair that commutes within STRUCTURE_TOL, which route 1 takes before eq3
    (["busch-boundary", "--l", "0"], 0),
], ids=[
    "l-inf", "l-nan", "gamma-minus-inf", "l-huge", "triple-l-huge", "l-not-an-effect", "paradox-l-huge",
    "anorm-huge", "seed-negative", "gamma-huge", "l-zero",
])
def test_run_checks_its_scenario_parameters_without_a_warning(argv, code, capsys):
    # all but seed-negative once exited 1 under PYTHONWARNINGS=error: a
    # RuntimeWarning, or for l-zero a failed expectation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", *argv]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == (code != 0) and "Traceback" not in err


@pytest.mark.parametrize("l", ["0", "1e-5", "-1e-5", "1e-4"])
def test_run_busch_boundary_passes_on_a_pair_that_route_one_takes(l, capsys):
    # ||[A, B]|| = l^2 / 2 is within STRUCTURE_TOL up to |l| of about 4.5e-5:
    # reason commuting, no margin; at 1e-4 reason eq3 with its margin
    assert main(["run", "busch-boundary", f"--l={l}"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {e["name"]: e for e in report["expectations"]}
    commuting = abs(float(l)) < 4.5e-5
    assert names["reason"]["expected"] == ("commuting" if commuting else "eq3")
    assert ("margin" in names) is not commuting


def _endpoints():
    """(scenario, parameter, endpoint, a value one past it) for every finite
    endpoint of every declared range."""
    for name, scenario in sorted(REGISTRY.items()):
        for key, (_, lo, hi) in scenario.parameters.items():
            for value, outside in ((lo, lo - 1), (hi, hi + 1)):
                if math.isfinite(value):
                    yield name, key, value, outside


def test_every_scenario_default_lies_in_its_range_and_every_flag_has_one_type():
    types = {}
    for scenario in REGISTRY.values():
        for key, (default, lo, hi) in scenario.parameters.items():
            assert lo <= default <= hi, (scenario.name, key)
            assert types.setdefault(key, type(default)) is type(default), key


@pytest.mark.parametrize("name, key, value, outside", list(_endpoints()))
def test_run_at_each_range_endpoint_exits_without_a_traceback(name, key, value, outside, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", name, f"--{key.replace('_', '-')}={value}"])
    assert code in (0, 1, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name, key, endpoint, outside", list(_endpoints()))
def test_run_scenario_refuses_a_value_outside_its_range_before_the_runner(
    name, key, endpoint, outside, monkeypatch
):
    def refuse(*_):
        raise AssertionError("the runner ran on a value outside its range")

    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(REGISTRY[name], runner=refuse))
    with pytest.raises(ValueError, match=f"{key} must lie in"):
        run_scenario(name, {key: outside})


@pytest.mark.parametrize("overrides", [{"dim": 4.5}, {"dim": 4.0}, {"seed": 0.5}, {"seed": "3"}])
def test_run_scenario_refuses_a_non_integer_for_an_integer_parameter_before_the_runner(
    overrides, monkeypatch
):
    # {"dim": 4.5} once drew a d = 4 pair, and {"seed": 0.5} ended in numpy's TypeError
    def refuse(*_):
        raise AssertionError("the runner ran on a non-integer")

    name = "commuting-sharp-product"
    monkeypatch.setitem(REGISTRY, name, dataclasses.replace(REGISTRY[name], runner=refuse))
    with pytest.raises(ValueError, match="must be an integer"):
        run_scenario(name, overrides)


def test_run_scenario_passes_integers_to_both_kinds_of_parameter(monkeypatch):
    seen = []

    def record(params, opts):
        seen.append(params)
        return [], {}

    for name in ("commuting-sharp-product", "busch-boundary"):
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(REGISTRY[name], runner=record))
    run_scenario("commuting-sharp-product", {"dim": np.int64(3), "seed": 5})
    run_scenario("busch-boundary", {"l": 1})
    assert seen == [{"dim": 3, "seed": 5}, {"l": 1}]
    assert type(seen[0]["dim"]) is int


@pytest.mark.parametrize("name", ["busch-boundary", "pairwise-not-triple"])
def test_run_refuses_parents_that_are_not_effects_before_deciding(name, monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("the barrier route ran on non-effects")

    monkeypatch.setattr("jointmeas.feasibility._decide_by_robustness", refuse)
    assert main(["run", name, "--l", "1.5"]) == 3
    assert "l must lie in [-1, 1]" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jointmeas.cli", "run", "--list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "busch-boundary" in proc.stdout


def test_console_script_if_on_path():
    exe = shutil.which("jointmeas")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "run", "--list"], capture_output=True, text=True)
    assert proc.returncode == 0
