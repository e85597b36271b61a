import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rank2cluster
from rank2cluster.cli import main

GOLDEN_XM1 = "(1 + 3*x1^2 + 3*x1^4 + x1^6 + x2^3) / (x1*x2^3)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# plain computations

def test_var_text(capsys):
    code, out, _ = run(capsys, "var", "--b", "2", "--c", "3", "--k", "-1")
    assert code == 0
    assert out.strip() == GOLDEN_XM1


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "--b", "2", "--c", "3", "--k", "4", "--m", "2")
    assert code == 0
    assert out.strip() == "(1 + y2^2) / y1"


def test_period_text(capsys):
    code, out, _ = run(capsys, "period", "--b", "1", "--c", "1", "--max", "10")
    assert (code, out.strip()) == (0, "5")
    code, out, _ = run(capsys, "period", "--b", "2", "--c", "2", "--max", "12")
    assert (code, out.strip()) == (0, "none <= 12")
    code, out, _ = run(capsys, "period", "--b", "2", "--c", "3", "--max", "10")
    assert (code, out.strip()) == (0, "none <= 10")


def test_ccmap_fold_text(capsys):
    code, out, _ = run(capsys, "ccmap", "--b", "2", "--c", "3", "--k", "-1", "--fold")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "object: P_v1"
    assert lines[1] == (
        "X = (1 + 3*u_v1*u_v2 + 3*u_v1^2*u_v2^2 + u_v1^3*u_v2^3 "
        "+ u_w1*u_w2*u_w3) / (u_v1*u_w1*u_w2*u_w3)"
    )
    assert lines[2] == f"pi(X) = {GOLDEN_XM1}"


def test_euler_explicit_module(capsys):
    code, out, _ = run(
        capsys,
        "euler", "--b", "2", "--c", "3", "--module", "Iw",
        "--sub", "1,1,1,0,0",
    )
    assert (code, out.strip()) == (0, "1")


def test_euler_generic_module(capsys):
    code, out, _ = run(
        capsys,
        "euler", "--b", "2", "--c", "2", "--module", "generic",
        "--dim", "1,2,2,2", "--sub", "1,1,1,1",
    )
    assert code == 0
    assert out.strip().isdigit()


# ---------------------------------------------------------------------------
# verification commands and exit codes

def test_verify_paper_range(capsys):
    code, out, _ = run(
        capsys, "verify", "--b", "2", "--c", "3", "--k-min", "-1", "--k-max", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "6 passed, 0 failed, 0 inconclusive" in lines[0]
    assert sum(1 for line in lines if "PASS" in line) == 6


def test_exchange_command(capsys):
    code, out, _ = run(
        capsys, "exchange", "--b", "2", "--c", "3", "--class", "v", "--s", "0"
    )
    assert code == 0 and "PASS" in out


def test_sweep_command(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--b", "1", "--c", "2",
        "--k-min", "-2", "--k-max", "4", "--m-min", "0", "--m-max", "1",
    )
    assert code == 0
    assert "0 failed, 0 inconclusive" in out


def test_sweep_cap_gives_exit_3(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--b", "3", "--c", "3",
        "--k-min", "-2", "--k-max", "6", "--m-min", "0", "--m-max", "0",
        "--max-terms", "50",
    )
    assert code == 3
    assert "support bound" in out


def test_budget_exceeded_is_inconclusive(capsys):
    code, _, err = run(capsys, "ccmap", "--b", "2", "--c", "3", "--k", "-3")
    assert code == 3
    assert "inconclusive: BudgetExceeded" in err


def test_semantic_usage_error(capsys):
    code, _, err = run(capsys, "var", "--b", "0", "--c", "3", "--k", "1")
    assert code == 2
    assert "usage error" in err


def test_euler_usage_errors(capsys):
    code, _, err = run(
        capsys, "euler", "--b", "2", "--c", "2", "--module", "generic", "--sub", "0,0,0,0"
    )
    assert code == 2 and "--dim is required" in err
    code, _, err = run(
        capsys,
        "euler", "--b", "2", "--c", "2", "--module", "Pv",
        "--dim", "1,1,1,1", "--sub", "0,0,0,0",
    )
    assert code == 2 and "--dim applies only" in err


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["var", "--b", "2", "--c", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--b", "1", "--c", "1", "--check", "positivity,unitary"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["exchange", "--b", "1", "--c", "1", "--class", "z", "--s", "0"])
    assert info.value.code == 2


def test_verify_empty_range_rejected(capsys):
    code, _, err = run(
        capsys, "verify", "--b", "1", "--c", "1", "--k-min", "3", "--k-max", "1"
    )
    assert code == 2 and "empty verification range" in err


# ---------------------------------------------------------------------------
# JSON output

def test_json_wrapper_shape(capsys):
    code, out, _ = run(capsys, "var", "--b", "2", "--c", "3", "--k", "-1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"command", "results", "report"}
    assert payload["command"] == "var"
    assert payload["report"] is None
    assert payload["results"][0]["variables"] == ["x1", "x2"]
    coeffs = [t["coefficient"] for t in payload["results"][0]["terms"]]
    assert sorted(coeffs) == ["1", "1", "1", "3", "3"]


def test_json_report_embedded(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--b", "1", "--c", "1", "--k-min", "0", "--k-max", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["passed"] == 4
    assert payload["report"]["failed"] == 0
    assert all(item["status"] == "pass" for item in payload["report"]["items"])


def test_json_output_is_byte_deterministic(capsys):
    args = ("ccmap", "--b", "2", "--c", "3", "--k", "4", "--fold", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert json.dumps(json.loads(first), sort_keys=True) + "\n" == first


# ---------------------------------------------------------------------------
# seeds and process entry

def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("RANK2_SEED", "5")
    code, out, _ = run(capsys, "ccmap", "--b", "2", "--c", "2", "--k", "-3", "--fold")
    assert code == 0
    monkeypatch.setenv("RANK2_SEED", "not-a-number")
    code, _, err = run(capsys, "ccmap", "--b", "2", "--c", "2", "--k", "-3")
    assert code == 2 and "usage error" in err


def test_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("RANK2_SEED", "not-a-number")
    code, _, _ = run(
        capsys, "ccmap", "--b", "2", "--c", "2", "--k", "-3", "--seed", "1"
    )
    assert code == 0


def test_module_entry_point():
    # the child imports the same package as this process, installed or not
    src = str(Path(rank2cluster.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rank2cluster", "period", "--b", "1", "--c", "3", "--max", "10"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"
