"""Command-line contract: exit codes, JSON output, env tolerance."""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from jointmeas import (
    BlochEffect,
    HermitianOperator,
    Observable,
    SimpleQubitObservable,
    boundary_joint,
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
        ["run", "busch-boundary", "--restarts", "2", "--json-out", str(out_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    on_stdout = json.loads(captured.out)
    on_disk = json.loads(out_path.read_text())
    assert on_stdout == on_disk
    assert on_stdout["passed"] is True
    assert all(e["passed"] for e in on_stdout["expectations"])


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
        ["check", "jm-set", *files, "--restarts", "2", "--expect", "INFEASIBLE"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["report"]) == {"pairs", "global"}
    assert len(data["report"]["pairs"]) == 3
    assert data["report"]["global"]["reason"] == "eq6"


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


def test_env_tolerance_is_honored(pair_files, monkeypatch, capsys):
    a, b = pair_files
    monkeypatch.setenv("JM_DEFAULT_TOL", "1e-5")
    assert main(["check", "jm-pair", a, b, "--expect", "INFEASIBLE"]) == 0
    capsys.readouterr()

    monkeypatch.setenv("JM_DEFAULT_TOL", "not-a-number")
    with pytest.raises(SystemExit, match="JM_DEFAULT_TOL"):
        main(["check", "jm-pair", a, b])


def test_reports_round_to_twelve_significant_digits(pair_files, capsys):
    a, b = pair_files
    main(["check", "jm-pair", a, b])
    data = json.loads(capsys.readouterr().out)
    margin = data["report"]["margin"]
    assert margin == float(f"{margin:.12g}")
    assert margin == pytest.approx(1.6 * math.sqrt(2.0) - 2.0, abs=1e-11)


def test_same_seed_gives_identical_output(tmp_path, capsys):
    a = dump(tmp_path, "a.json", unbiased(0.5 * EX))
    b = dump(tmp_path, "b.json", unbiased(0.5 * EY))
    argv = ["check", "jm-pair", a, b, "--restarts", "2", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


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
