import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rank2cluster
from rank2cluster import cli
from rank2cluster.cli import main
from rank2cluster.laurent import LaurentPolynomial
from rank2cluster.rank2 import ExchangeType, predicted_numerator_terms
from rank2cluster.report import CheckReport

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


@pytest.mark.parametrize(
    "argv",
    [
        # objects far along the Coxeter walk, whose dims outgrow int64
        ("ccmap", "--b", "2", "--c", "3", "--k", "80"),
        ("ccmap", "--b", "2", "--c", "3", "--k", "-80"),
        ("exchange", "--b", "2", "--c", "3", "--class", "v", "--s", "40"),
        # a generic module over the budget, asked for one Euler characteristic
        ("euler", "--b", "2", "--c", "3", "--module", "generic",
         "--dim", "2,3,4,4,4", "--sub", "0,0,0,0,0"),
    ],
)
def test_far_and_large_modules_are_inconclusive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "BudgetExceeded" in out + err


@pytest.fixture
def low_int_str_limit():
    # 640 is the lowest limit the interpreter accepts, so (3,3) reaches it
    # at small indices
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str conversion limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv",
    [
        ("ccmap", "--b", "3", "--c", "3", "--k", "1600"),
        ("exchange", "--b", "3", "--c", "3", "--class", "v", "--s", "800"),
    ],
)
def test_dimension_total_past_the_int_str_limit_is_inconclusive(capsys, low_int_str_limit, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    # the total has 668 digits: its size is named instead of its value
    assert "BudgetExceeded: dimension total (668 digits) exceeds" in out + err


def test_verify_past_the_int_str_limit_reports_one_inconclusive_item(capsys, low_int_str_limit):
    code, out, _ = run(
        capsys, "verify", "--b", "3", "--c", "3", "--k-min", "1600", "--k-max", "1600", "--json"
    )
    assert code == 3
    items = json.loads(out)["report"]["items"]
    assert [(it["label"], it["status"]) for it in items] == [("k=1600", "inconclusive")]
    assert "dimension total (668 digits)" in items[0]["detail"]


def test_sweep_skip_past_the_int_str_limit_is_inconclusive(capsys, low_int_str_limit):
    code, out, _ = run(
        capsys,
        "sweep", "--b", "3", "--c", "3",
        "--k-min", "700", "--k-max", "800", "--m-min", "1", "--m-max", "1",
        "--max-terms", "10", "--json",
    )
    assert code == 3
    items = json.loads(out)["report"]["items"]
    assert {it["status"] for it in items} == {"inconclusive"} and len(items) == 101
    # x_700's bound, 583 digits, fits under the limit and prints in full
    assert items[0]["detail"] == (
        f"skipped: numerator support bound {predicted_numerator_terms(ExchangeType(3, 3), 700)} "
        "exceeds cap 10"
    )
    assert items[-1]["detail"] == "skipped: numerator support bound (666 digits) exceeds cap 10"


def test_semantic_usage_error(capsys):
    code, _, err = run(capsys, "var", "--b", "0", "--c", "3", "--k", "1")
    assert code == 2
    assert "usage error" in err
    # a NaN budget would never expire and a negative guard would skip every
    # cell: both are refused before any cell runs
    grid = ("sweep", "--b", "1", "--c", "2", "--k-min", "0", "--k-max", "1")
    for guard in (("--budget-seconds", "nan"), ("--budget-seconds", "-1"),
                  ("--max-terms", "-1")):
        code, out, err = run(capsys, *grid, *guard)
        assert (code, out) == (2, "") and err.startswith("usage error: ")


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
    # a KeyError's message is printed as it reads, not as its repr
    code, _, err = run(
        capsys,
        "euler", "--b", "2", "--c", "2", "--module", "Pv", "--index", "9", "--sub", "1,0,1,1",
    )
    assert (code, err) == (2, "usage error: unknown vertex 'v9'\n")


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["var", "--b", "2", "--c", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--b", "1", "--c", "1", "--check", "positivity,unitary"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--b", "1", "--c", "1", "--check", ""])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["exchange", "--b", "1", "--c", "1", "--class", "z", "--s", "0"])
    assert info.value.code == 2


def test_parser_built_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    query = ("period", "--b", "1", "--c", "1", "--max", "10")
    first = run(capsys, *query)
    built.clear()
    assert run(capsys, *query) == first
    assert built == []


def test_parser_keeps_no_state_between_calls(capsys):
    # the parser is shared by every call, so a failed parse must leave
    # nothing behind: the next call parses its defaults as before
    query = ("sweep", "--b", "1", "--c", "2", "--k-min", "-1", "--k-max", "2",
             "--m-min", "0", "--m-max", "1", "--json")
    before = run(capsys, *query)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--b", "1", "--c", "2", "--check", ""])
    assert info.value.code == 2
    capsys.readouterr()
    assert run(capsys, *query) == before


def _count_parses(monkeypatch):
    parses = []
    parse_args = argparse.ArgumentParser.parse_args

    def counting(self, args=None, namespace=None):
        parses.append(tuple(args))
        return parse_args(self, args, namespace)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting)
    return parses


def _count_commands(monkeypatch):
    # the name of every command run, in order
    ran = []
    for name, command in list(cli._COMMANDS.items()):
        def counting(args, name=name, command=command):
            ran.append(name)
            return command(args)

        monkeypatch.setitem(cli._COMMANDS, name, counting)
    return ran


def test_repeated_argv_is_parsed_once(capsys, monkeypatch):
    parses = _count_parses(monkeypatch)
    ran = _count_commands(monkeypatch)
    query = ("euler", "--b", "2", "--c", "3", "--module", "Pv", "--sub", "1,0,1,1,1", "--json")
    first = run(capsys, *query)
    assert run(capsys, *query) == first and first[0] == 0
    assert parses == [query]
    assert ran == ["euler"]


def test_repeated_bad_argv_exits_2_every_time(capsys, monkeypatch):
    parses = _count_parses(monkeypatch)
    bad = ["var", "--b", "2", "--c", "3", "--k", "x"]
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: rank2cluster var") and "invalid int value: 'x'" in err
    assert parses == [tuple(bad)] * 2


def test_a_report_runs_again_on_every_call(capsys, monkeypatch):
    ran = _count_commands(monkeypatch)
    sweep = ("sweep", "--b", "2", "--c", "3", "--k-min", "3", "--k-max", "4",
             "--m-min", "1", "--m-max", "1", "--budget-seconds", "0")
    first = run(capsys, *sweep)
    assert first[0] == 3 and "time budget exhausted" in first[1]
    assert run(capsys, *sweep) == first
    passing = ("verify", "--b", "1", "--c", "1", "--k-min", "0", "--k-max", "1", "--json")
    assert run(capsys, *passing)[0] == 0
    assert run(capsys, *passing)[0] == 0
    assert ran == ["sweep", "sweep", "verify", "verify"]
    assert cli._ANSWERS == {}


def test_inconclusive_answers_exit_3_on_every_repeat(capsys, monkeypatch):
    ran = _count_commands(monkeypatch)
    # a step the kernel declines, and an object past the enumeration budget
    monkeypatch.setattr(rank2cluster._packed, "positive_exact_div", lambda *args: None)
    rank2cluster.rank2.clear_cache()
    declined = ("var", "--b", "4", "--c", "5", "--k", "4", "--json")
    far = ("ccmap", "--b", "3", "--c", "3", "--k", "9", "--fold", "--json")
    for query, reason in ((declined, "could not certify"), (far, "enumeration budget")):
        first = run(capsys, *query)
        assert first[0] == 3 and first[1] == "" and reason in first[2]
        assert run(capsys, *query) == first
    assert ran == ["var", "var", "ccmap", "ccmap"]


def test_usage_errors_exit_2_on_every_repeat(capsys, monkeypatch):
    ran = _count_commands(monkeypatch)
    generic = ("euler", "--b", "2", "--c", "3", "--module", "generic", "--sub", "0,0,0,0,0")
    for _ in range(2):
        code, out, err = run(capsys, *generic)
        assert (code, out) == (2, "") and "--dim is required" in err
    assert ran == ["euler", "euler"]


def test_an_answer_over_the_term_limit_is_computed_again(capsys, monkeypatch):
    ran = _count_commands(monkeypatch)
    # x_7 of type (3,2) has 91 terms
    query = ("var", "--b", "3", "--c", "2", "--k", "7", "--json")
    monkeypatch.setattr(rank2cluster.rank2, "_CACHE_TERM_LIMIT", 90)
    first = run(capsys, *query)
    assert first[0] == 0 and len(json.loads(first[1])["results"][0]["terms"]) == 91
    assert run(capsys, *query) == first
    assert ran == ["var", "var"]
    # the limit is read on every call: at 91 terms the answer is kept
    monkeypatch.setattr(rank2cluster.rank2, "_CACHE_TERM_LIMIT", 91)
    assert run(capsys, *query) == first
    assert run(capsys, *query) == first
    assert ran == ["var", "var", "var"]


def test_text_and_json_argvs_print_their_own_bytes(capsys):
    query = ("var", "--b", "2", "--c", "3", "--k", "-1")
    text, as_json = run(capsys, *query), run(capsys, *query, "--json")
    assert text[1] == GOLDEN_XM1 + "\n"
    assert json.loads(as_json[1])["command"] == "var"
    for _ in range(2):
        assert run(capsys, *query) == text
        assert run(capsys, *query, "--json") == as_json


def test_main_reads_sys_argv(capsys, monkeypatch):
    for k, golden in (("-1", GOLDEN_XM1), ("3", "(1 + x2^3) / x1")):
        monkeypatch.setattr(sys, "argv", ["rank2cluster", "var", "--b", "2", "--c", "3", "--k", k])
        assert main() == 0
        assert capsys.readouterr().out.strip() == golden


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


MEMO_QUERIES = [
    ("var", "--b", "2", "--c", "3", "--k", "7"),
    ("var", "--b", "2", "--c", "3", "--k", "-3"),
    ("expand", "--b", "3", "--c", "2", "--k", "6", "--m", "1"),
    ("expand", "--b", "3", "--c", "2", "--k", "6", "--m", "2"),
    ("ccmap", "--b", "2", "--c", "3", "--k", "-2", "--fold"),
    ("sweep", "--b", "2", "--c", "2", "--k-min", "-2", "--k-max", "4",
     "--m-min", "-1", "--m-max", "1", "--check", "laurent,positivity,denominator"),
    ("period", "--b", "1", "--c", "2", "--max", "7"),
    ("euler", "--b", "2", "--c", "3", "--module", "Pv", "--sub", "1,0,1,1,1"),
]


@pytest.mark.parametrize("query", MEMO_QUERIES, ids=lambda q: "_".join(q).replace("--", ""))
def test_json_is_canonical_and_unchanged_by_the_memo(capsys, query):
    # the cold call, the memo hit and the call after clear_cache print the
    # same canonical bytes: keys sorted, default separators, one line
    outputs = []
    for clear in (True, False, True):
        if clear:
            rank2cluster.rank2.clear_cache()
            cli._ANSWERS.clear()
        code, out, err = run(capsys, *query, "--json")
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    for line in outputs[0].splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_memo_hit_prints_memoized_text(capsys, monkeypatch):
    serialized = []
    original = LaurentPolynomial.to_json

    def spy(self):
        serialized.append(self)
        return original(self)

    def forbidden(self):
        raise AssertionError("the CLI serialized through to_json_dict")

    monkeypatch.setattr(LaurentPolynomial, "to_json", spy)
    monkeypatch.setattr(LaurentPolynomial, "to_json_dict", forbidden)
    ran = _count_commands(monkeypatch)
    for query in MEMO_QUERIES[:5]:
        first = run(capsys, *query, "--json")
        ran.clear()
        serialized.clear()
        # a repeated argv prints the kept text: no command, no serializer
        assert run(capsys, *query, "--json") == first
        assert ran == [] and serialized == []


def test_json_renders_no_text(capsys, monkeypatch):
    rendered = []

    def spy(cls, name):
        original = getattr(cls, name)

        def wrapper(self):
            rendered.append(name)
            return original(self)

        monkeypatch.setattr(cls, name, wrapper)

    spy(LaurentPolynomial, "__str__")
    spy(CheckReport, "summary")
    queries = [
        ("var", "--b", "2", "--c", "3", "--k", "-1"),
        ("expand", "--b", "2", "--c", "3", "--k", "4", "--m", "2"),
        ("ccmap", "--b", "2", "--c", "3", "--k", "-1", "--fold"),
        ("verify", "--b", "2", "--c", "3", "--k-min", "-1", "--k-max", "4"),
    ]
    for query in queries:
        code, out, _ = run(capsys, *query, "--json")
        assert code == 0 and json.loads(out)["command"] == query[0]
    assert rendered == []
    # the text format still renders through the same methods
    texts = [run(capsys, *query)[1].strip().splitlines() for query in queries]
    assert texts[0] == [GOLDEN_XM1]
    assert texts[1] == ["(1 + y2^2) / y1"]
    assert texts[2][0] == "object: P_v1" and texts[2][2] == f"pi(X) = {GOLDEN_XM1}"
    assert "6 passed, 0 failed, 0 inconclusive" in texts[3][0]
    assert set(rendered) == {"__str__", "summary"}


# ---------------------------------------------------------------------------
# seeds and process entry

def test_seed_env_fallback(capsys, monkeypatch):
    # the seed has one source, --seed with default 0; the environment is ignored
    args = ("ccmap", "--b", "2", "--c", "2", "--k", "-3", "--fold", "--json")
    _, pinned, _ = run(capsys, *args, "--seed", "0")
    monkeypatch.setenv("RANK2_SEED", "not-a-number")
    code, out, err = run(capsys, *args)
    assert code == 0 and not err
    assert out == pinned


def test_seed_flag_overrides_env(capsys, monkeypatch):
    # --seed reaches the sampler as given, and its absence means 0, whatever
    # the environment holds
    seen = []

    def spy(spec, e, seed):
        seen.append(seed)
        return 1

    monkeypatch.setattr("rank2cluster.cli.euler_characteristic", spy)
    monkeypatch.setenv("RANK2_SEED", "5")
    args = ("euler", "--b", "2", "--c", "3", "--module", "Pv", "--sub", "0,0,0,0,0")
    assert run(capsys, *args, "--seed", "1")[0] == 0
    assert run(capsys, *args)[0] == 0
    assert seen == [1, 0]


def _run_child(*args):
    # the child imports the same package as this process, installed or not
    src = str(Path(rank2cluster.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = _run_child("-m", "rank2cluster", "period", "--b", "1", "--c", "3", "--max", "10")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_package_imports_without_numpy():
    # numpy is a test-only dependency: neither the package nor the CLI loads it
    code = "import sys, rank2cluster, rank2cluster.cli; print('numpy' in sys.modules)"
    proc = _run_child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_export_list_resolves_without_duplicates():
    names = rank2cluster.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(rank2cluster, name)]
    assert missing == []
