"""Command-line contract: exit codes, JSON output, env tolerance."""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jointmeas
import numpy as np
import pytest

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
)
from jointmeas.cli import main

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
    assert "dim >= 2" in proc.stderr


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
