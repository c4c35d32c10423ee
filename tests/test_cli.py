"""CLI behavior: exit codes, deterministic output, subcommands, flags."""

import gc
import json
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from recausal import cli, solver
from recausal.cli import main
from recausal.exactalg import PolyMatrix, rat
from recausal.solver import solve_causal

ROOT = Path(__file__).resolve().parents[1]
SIMS = str(ROOT / "models" / "sims.json")
REDUNDANT = str(ROOT / "models" / "redundant.json")
GENERIC = str(ROOT / "tests" / "golden" / "generic.json")

INDETERMINATE_SCALAR = """{
  "s": 1, "K": 0, "H": 1, "q": 1, "gamma": [1, 0],
  "A": [
    {"k": 0, "h": 0, "matrix": [["-1"]]},
    {"k": 0, "h": 1, "matrix": [["2"]]}
  ],
  "wold": [[["1"]]]
}"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sims(capsys):
    code, out, _ = run(capsys, "solve", SIMS)
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "solve"
    assert doc["classification"] == "determinate"
    assert doc["indeterminacy_dim"] == 0
    assert doc["h"] == [["-10/11", "200000/11"], ["0", "0"]]
    assert doc["transfer_denominator"] == ["1", "-9/10"]
    assert doc["schema_version"] == 1


def test_verify_sims(capsys):
    code, out, _ = run(capsys, "verify", SIMS, "--max-lag", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["max_lag"] == 40
    assert doc["failures"] == []


def test_analyze_sims(capsys):
    code, out, _ = run(capsys, "analyze", SIMS)
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "predetermined"
    assert doc["free_parameters"] == 2
    assert doc["kernel_dim"] == 1
    assert doc["validation"]["ok"] is True


def test_smith_sims(capsys):
    code, out, _ = run(capsys, "smith", SIMS)
    assert code == 0
    doc = json.loads(out)
    assert doc["g"] == [0, 1]
    assert doc["J1"] == 1
    assert doc["invariant_factors"][0] == ["1"]
    assert doc["invariant_factors"][1] == ["0", "100/99", "-200/99", "1"]


def test_constraints_sims(capsys):
    code, out, _ = run(capsys, "constraints", SIMS)
    assert code == 0
    doc = json.loads(out)
    assert doc["flavor"] == "predetermined"
    assert doc["rank_w"] == 1
    assert doc["effective_unknowns"] == 2  # h's free entry and the one vector of ker L
    assert len(doc["kernel"]) == 1


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", SIMS)
    _, out2, _ = run(capsys, "solve", SIMS)
    assert out1 == out2
    _, out3, _ = run(capsys, "analyze", SIMS)
    _, out4, _ = run(capsys, "analyze", SIMS)
    assert out3 == out4


def test_redundant_model_exit_1(capsys):
    code, out, err = run(capsys, "analyze", REDUNDANT)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_failed_verify_prints_report_and_exits_1(capsys, monkeypatch):
    # the sims solution with its numerator's constant term perturbed fails at lag 0
    def perturbed(m, kernel_point="min-norm"):
        sr = solve_causal(m, kernel_point=kernel_point)
        num = [list(row) for row in sr.transfer_num.entries]
        num[0][0] = num[0][0] + 1
        return sr._replace(transfer_num=PolyMatrix(num))

    monkeypatch.setattr(solver, "solve_causal", perturbed)
    code, out, err = run(capsys, "verify", SIMS)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failures"][0]["lag"] == 0
    assert err == "error: verification failed at lag 0\n"


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "solve", str(ROOT / "models" / "nope.json"))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "content, code, message",
    [(None, 2, "Is a directory"), (b"\xff\xfe", 1, "is not UTF-8 text"),
     (b"[" * 100_000 + b"]" * 100_000, 1, "invalid JSON: maximum recursion depth")],
    ids=["directory", "not-utf8", "nested-100000-deep"],
)
def test_unreadable_or_malformed_file_is_one_error_line(capsys, tmp_path, content, code, message):
    """A directory is a path that cannot be read (exit 2), as a missing file is;
    a file that is not UTF-8 or whose JSON nests past the recursion limit is a
    format error (exit 1).  Each is one error line, not a traceback."""
    path = tmp_path / "model.json"
    path.mkdir() if content is None else path.write_bytes(content)
    got, out, err = run(capsys, "analyze", str(path))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_max_lag_below_h_exit_2(capsys):
    code, _, err = run(capsys, "verify", SIMS, "--max-lag", "0")
    assert code == 2
    assert "max-lag" in err


USAGE_ERRORS = [
    ([], "the following arguments are required: command, model"),
    (["solve"], "the following arguments are required: model"),
    (["frobnicate", SIMS], "argument command: invalid choice: 'frobnicate' (choose from "
     "'analyze', 'smith', 'constraints', 'solve', 'verify', 'simulate', 'probe')"),
    # argparse's order: the command's choice before a missing model, a missing
    # model before unrecognized tokens, which are listed together in argv order
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from "
     "'analyze', 'smith', 'constraints', 'solve', 'verify', 'simulate', 'probe')"),
    (["solve", "--bogus"], "the following arguments are required: model"),
    (["--bogus", "solve", SIMS, "extra", "--format", "text", "-q"],
     "unrecognized arguments: --bogus extra -q"),
    (["solve", SIMS, "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    (["solve", SIMS, "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
    (["solve", SIMS, "--seed"], "argument --seed: expected one argument"),
    (["solve", SIMS, "--xi", "--format", "text"], "argument --xi: expected one argument"),
    (["solve", SIMS, "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["solve", SIMS, "--trials=2.5"], "argument --trials: invalid int value: '2.5'"),
    (["solve", SIMS, "extra"], "unrecognized arguments: extra"),
    (["solve", SIMS, "extra", "more"], "unrecognized arguments: extra more"),
    (["solve", SIMS, "--help=1"], "argument -h/--help: ignored explicit argument '1'"),
    # spellings argparse took: an option prefix and a `--` separator
    (["verify", SIMS, "--max", "3"], "unrecognized arguments: --max 3"),
    (["solve", "--", SIMS], "unrecognized arguments: --"),
]


def test_usage_errors_exit_2(capsys):
    """The usage line and one `recausal: error:` line on stderr, nothing on stdout."""
    for argv, message in USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert err.startswith("usage: recausal [-h]"), argv
        assert err.endswith(f"\nrecausal: error: {message}\n"), argv


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_option(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["solve", flag, "--no-such-flag"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: recausal [-h]")
    assert all(command in out for command in cli._COMMANDS)
    assert all(option in out for option in ("--help", *cli._OPTIONS))


def test_options_before_or_after_the_model(capsys):
    """One parser: options may precede the command, the model or follow both, as
    `--opt value` or `--opt=value`; the last of a repeated option wins."""
    want = run(capsys, "solve", GENERIC, "--format", "text", "--kernel-point", "0")
    assert run(capsys, "--format", "text", "solve", "--kernel-point", "0", GENERIC) == want
    assert run(capsys, "solve", "--kernel-point", "0", GENERIC, "--format", "text") == want
    assert run(capsys, "solve", GENERIC, "--format=text", "--kernel-point=0") == want
    assert run(capsys, "--format", "json", "solve", "--kernel-point=min-norm", GENERIC,
               "--format=text", "--kernel-point", "0") == want
    assert want[0] == 0 and "kernel_point: 0" in want[1]
    # a negative number is a value, also after a space; --seed=-1 reaches its range check
    for seed in (["--seed", "-1"], ["--seed=-1"]):
        assert run(capsys, "probe", SIMS, *seed) == (2, "", "error: --seed must be non-negative\n")
    # so is a token with a space in it, as in argparse
    assert run(capsys, "solve", SIMS, "--xi", "-1 2") == (
        2, "", "error: --xi: xi must be a rational number, got '-1 2'\n")


def test_format_text(capsys):
    code, out, _ = run(capsys, "solve", SIMS, "--format", "text")
    assert code == 0
    assert "classification: determinate" in out
    assert "{" not in out.splitlines()[0]


def test_format_text_keeps_matrix_shape(capsys):
    """A list of scalars inside a list is one `- [a, b]` line, so a 2 x 1 and a 1 x 2
    matrix print differently; a row of polynomials is a bare `-` over its entries."""
    printed = []
    for doc in ({"m": [["1"], ["2"]]}, {"m": [["1", "2"]]}, {"m": [[["1"], []]]}, {"g": [0, 1]}):
        cli._emit_text(doc)
        printed.append(capsys.readouterr().out)
    assert printed == [
        "m:\n  - [1]\n  - [2]\n",
        "m:\n  - [1, 2]\n",
        "m:\n  -\n    - [1]\n    - []\n",
        "g:\n  - 0\n  - 1\n",
    ]


def test_format_text_prints_empty_values(capsys):
    """An empty list or dict is `key: []` or `key: {}`, not a bare `key:` that reads
    like a missing value."""
    cli._emit_text({"a": [], "b": {}, "c": [1]})
    assert capsys.readouterr().out == "a: []\nb: {}\nc:\n  - 1\n"


def test_main_leaves_the_collector_as_it_was(capsys):
    """main(argv) is the in-process API: it freezes and disables nothing."""
    before = gc.get_freeze_count(), gc.isenabled()
    assert run(capsys, "analyze", SIMS)[0] == 0
    assert run(capsys, "analyze", REDUNDANT)[0] == 1
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("path", [SIMS, REDUNDANT], ids=["sims", "redundant"])
def test_run_returns_mains_exit_code_and_freezes(capsys, monkeypatch, path):
    """The script entry returns main's exit code and leaves the collector frozen, so
    that the interpreter's shutdown skips collecting what exiting frees anyway."""
    want = run(capsys, "analyze", path)
    monkeypatch.setattr(sys, "argv", ["recausal", "analyze", path])
    before = gc.get_freeze_count()
    try:
        code = cli.run()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert frozen > before


def test_script_entry_is_the_main_block_entry():
    """pyproject's `recausal` script and `python -m recausal.cli` call one function.
    pyproject.toml is read as text: tomllib is not in Python 3.10."""
    script = re.search(r'^recausal = "recausal\.cli:(\w+)"$',
                       (ROOT / "pyproject.toml").read_text(), re.M)
    block = re.search(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)\n\Z',
                      Path(cli.__file__).read_text(), re.M)
    assert script and block and script[1] == block[1] == "run"


def test_closed_stdout_is_exit_1_without_traceback():
    """A reader that closes the pipe before the report is written (`| head -c 0`)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "recausal.cli", "analyze", SIMS], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, "")


def test_probe(capsys):
    code, out, _ = run(capsys, "probe", SIMS, "--trials", "5", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "probe"
    assert doc["trials"] == 5
    assert doc["non_generic"] is False


def test_simulate(capsys):
    code, out, _ = run(capsys, "simulate", SIMS, "--trials", "2000", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "simulate"
    assert doc["T"] == 2000 and doc["seed"] == 9


def test_simulate_with_three_trials(capsys):
    """T = 3 is the fewest: every autocovariance is finite, so the output is JSON."""
    code, out, err = run(capsys, "simulate", SIMS, "--trials", "3")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in simulate output"))
    assert doc["T"] == 3 and sorted(doc["autocov"]) == ["0", "1", "2"]
    assert run(capsys, "probe", SIMS, "--trials", "1")[0] == 0  # the bound is simulate's
    assert run(capsys, "smith", SIMS, "--trials", "0")[0] == 0  # only simulate and probe read it


def _scalar_wold(w: int) -> str:
    """y = w eps: a determinate scalar model whose transfer is the integer w."""
    return json.dumps({"s": 1, "K": 0, "H": 0, "q": 1, "gamma": [1],
                       "A": [{"k": 0, "h": 0, "matrix": [["1"]]}], "wold": [[[str(w)]]], "xi": "1"})


@pytest.mark.parametrize("w, trials, message", [
    (2**1100, "100000", "transfer coefficient at lag 0 is too large for a float"),
    (10**200, "10", "autocov at lag 0 is not a finite float"),
], ids=["2**1100", "10**200"])
def test_simulate_past_the_float_range_is_one_error_line(capsys, tmp_path, w, trials, message):
    """solve and verify are exact and accept the model; simulate prints no traceback,
    no numpy warning and no non-JSON Infinity, but one error line and exit 1."""
    path = tmp_path / "scalar.json"
    path.write_text(_scalar_wold(w))
    assert run(capsys, "solve", str(path))[::2] == (0, "")
    assert run(capsys, "verify", str(path))[::2] == (0, "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, "simulate", str(path), "--trials", trials)
    assert got == (1, "", f"error: {message}\n")


def test_simulate_past_the_allocatable_trials_is_one_error_line(capsys):
    """numpy refuses a y of 10^19 rows before allocating it (more than its largest dimension):
    one error line naming T and y's bytes, exit 1, no traceback."""
    T = 10**19
    assert run(capsys, "simulate", SIMS, "--trials", str(T)) == (
        1, "", f"error: cannot allocate y, {16 * T} bytes for T = {T}\n")


# A_00 = 1, A_01 = -2^1036: det pi has a root of modulus 2^1036, past the float range
HUGE_ROOT_SCALAR = INDETERMINATE_SCALAR.replace('"-1"', '"1"').replace('"2"', f'"{-2**1036}"')


def test_kernel_point_flag(capsys, tmp_path):
    path = tmp_path / "scalar.json"
    for model in (INDETERMINATE_SCALAR, HUGE_ROOT_SCALAR):
        path.write_text(model)
        assert run(capsys, "analyze", str(path))[::2] == (0, "")
        code, out0, err0 = run(capsys, "solve", str(path))
        code1, out1, err1 = run(capsys, "solve", str(path), "--kernel-point", "0")
        assert code == code1 == 0 and err0 == err1 == ""
        doc0, doc1 = json.loads(out0), json.loads(out1)
        assert doc0["classification"] == doc1["classification"] == "indeterminate"
        assert doc0["indeterminacy_dim"] == 1
        assert doc0["h"] != doc1["h"]


@pytest.mark.parametrize("point", ["99", "1", "-1", "abc", ""])
def test_kernel_point_out_of_range(capsys, point):
    # generic.json has a one-vector kernel, so 0 is its only basis index
    for cmd in ("solve", "verify", "simulate"):
        code, out, err = run(capsys, cmd, GENERIC, "--kernel-point", point)
        assert (code, out) == (2, "")
        assert err == (f"error: --kernel-point {point!r} is not 'min-norm' or a kernel "
                       "basis index in 0..0\n")


def test_kernel_point_with_empty_kernel(capsys):
    # sims.json is determinate: no index names a kernel vector
    code, out, err = run(capsys, "solve", SIMS, "--kernel-point", "0")
    assert (code, out) == (2, "")
    assert err == "error: --kernel-point '0' is not 'min-norm' or an index: the kernel is empty\n"


def test_kernel_point_in_range(capsys):
    code, out, err = run(capsys, "solve", GENERIC, "--kernel-point", "0")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    default = json.loads(run(capsys, "solve", GENERIC)[1])
    assert doc["kernel_point"] == "0" and default["kernel_point"] == "min-norm"
    assert doc["kernel"] == default["kernel"] and len(doc["kernel"]) == 1
    assert doc["h"] != default["h"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", SIMS, "--xi", "abc"], "--xi: xi must be a rational number, got 'abc'"),
        (["solve", SIMS, "--xi", "1/2"], "--xi: xi must be at least 1"),
        (["solve", SIMS, "--xi", "1/0"], "--xi: xi must be a rational number, got '1/0'"),
        (["simulate", SIMS, "--trials", "0"], "--trials must be at least 1"),
        (["simulate", SIMS, "--trials", "-5"], "--trials must be at least 1"),
        (["simulate", SIMS, "--seed", "-1"], "--seed must be non-negative"),
        (["probe", SIMS, "--trials", "-1"], "--trials must be at least 1"),
        (["simulate", SIMS, "--trials", "1"], "--trials must be at least 3 for simulate"),
        (["simulate", SIMS, "--trials", "2"], "--trials must be at least 3 for simulate"),
    ],
)
def test_bad_numeric_argument_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("entry", ["1e5000", "1e-5000", "2.5E+20000000"])
def test_decimal_exponent_past_the_digit_limit_is_one_error_line(capsys, tmp_path, entry):
    """A decimal exponent beyond 4300 in magnitude is refused as an integer string of over
    4300 digits is, before Fraction computes 10**exp: as an A entry, a w entry or xi it is
    one error line and exit 1, as --xi exit 2, each well within a second."""
    doc = json.loads(Path(SIMS).read_text())
    cases = [("A", "A[0,0]: malformed rational entry: decimal exponent"),
             ("wold", "wold[0]: malformed rational entry: decimal exponent"),
             ("xi", f"xi must be a rational number, got {entry!r}")]
    path = tmp_path / "model.json"
    for field, message in cases:
        bad = json.loads(json.dumps(doc))
        if field == "xi":
            bad["xi"] = entry
        else:
            (bad["A"][0]["matrix"] if field == "A" else bad["wold"][0])[0][0] = entry
        path.write_text(json.dumps(bad))
        start = time.perf_counter()
        code, out, err = run(capsys, "analyze", str(path))
        assert time.perf_counter() - start < 1 and (code, out) == (1, ""), field
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    start = time.perf_counter()
    assert run(capsys, "analyze", SIMS, "--xi", entry) == (
        2, "", f"error: --xi: xi must be a rational number, got {entry!r}\n")
    assert time.perf_counter() - start < 1
    assert (rat("1e3"), rat("-2.5e-3"), rat("1e4300") == 10**4300) == (1000, Fraction(-1, 400), True)


# pi(z) = 10^-4300 + 10^4300 z: the report's rationals pass CPython's default limit of 4300
# digits for str() of an int, which the decimal exponents that `rat` accepts stay within
BEYOND_THE_DIGIT_LIMIT = """{"s": 1, "K": 0, "H": 1, "q": 1, "gamma": [1, 0],
 "A": [{"k": 0, "h": 0, "matrix": [["1e-4300"]]}, {"k": 0, "h": 1, "matrix": [["1e4300"]]}],
 "wold": [[["1"]]]}"""


def test_rationals_past_the_digit_limit_end_in_a_report(capsys, tmp_path):
    """Every command on the model above, each in a fresh interpreter: exit 0, 1 or 2,
    stdout a JSON document or empty, stderr at most one `error:` line and no traceback.
    solve and smith print the 4301-digit root; main restores the process's limit."""
    path = tmp_path / "model.json"
    path.write_text(BEYOND_THE_DIGIT_LIMIT)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for command in ("analyze", "smith", "constraints", "solve", "verify", "probe", "simulate"):
        got = subprocess.run([sys.executable, "-m", "recausal.cli", command, str(path)], env=env,
                             capture_output=True, encoding="utf-8")
        lines = got.stderr.splitlines()
        assert got.returncode in (0, 1, 2), (command, got.stderr)
        assert "Traceback" not in got.stderr and len(lines) <= 1, (command, got.stderr)
        assert all(line.startswith("error: ") for line in lines), (command, got.stderr)
        assert got.stdout == "" or isinstance(json.loads(got.stdout), dict), command
        if command in ("smith", "solve"):
            assert got.returncode == 0 and "1" + "0" * 4300 in got.stdout, command
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        assert run(capsys, "solve", str(path))[0] == 0
        assert sys.get_int_max_str_digits() == limit


def test_xi_override_hits_ring(capsys):
    # widening the annulus to xi = 2 puts both nonzero roots inside it
    code, _, err = run(capsys, "solve", SIMS, "--xi", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("xi, low", [("2", "0.5"), ("7/3", "0.428571"), ("123456789", "8.1e-09"),
                                     ("1e400", "1e-400"), (f"{3 * 10**500}/7", "2.33333e-500")])
def test_ring_error_prints_one_over_xi_exactly(capsys, xi, low):
    """The ring's lower end 1/xi is printed to 6 digits as a float would print it,
    also where 1/xi as a float underflows to 0."""
    code, out, err = run(capsys, "analyze", SIMS, "--xi", xi)
    assert (code, out) == (1, "")
    assert f"inside the boundary ring [1/xi, 1] = [{low}, 1];" in err


def test_nothing_free_at_horizon_zero(capsys, tmp_path):
    """gamma = (0, ...): every variable is predetermined, so all of h is forced
    to zero, and the heads p are ker L, of dimension 1 in sims.  Each command
    answers; an emitted solution verifies."""
    sims = json.loads(Path(SIMS).read_text())
    sims["gamma"] = [0, 2]
    path = tmp_path / "sims_s0.json"
    path.write_text(json.dumps(sims))
    expect = {"analyze": ("effective_unknowns", 1), "constraints": ("effective_unknowns", 1),
              "solve": ("classification", "no_causal_solution")}
    for cmd, (key, value) in expect.items():
        code, out, err = run(capsys, cmd, str(path))
        assert (code, err, json.loads(out)[key]) == (0, "", value)
    # y_t = 2 E_t y_{t+1} + eps_t with y predetermined: y = -(1/2) z / (1 - z/2) eps
    path.write_text(INDETERMINATE_SCALAR.replace('"gamma": [1, 0]', '"gamma": [0, 1]'))
    code, out, _ = run(capsys, "solve", str(path))
    doc = json.loads(out)
    assert (code, doc["classification"], doc["h"]) == (0, "determinate", [["0"]])
    assert doc["transfer_numerator"] == [[["0", "-1/2"]]]
    assert doc["transfer_denominator"] == ["1", "-1/2"]
    code, out, _ = run(capsys, "verify", str(path))
    assert (code, json.loads(out)["ok"]) == (0, True)


def test_solve_refuses_negative_j1(capsys, tmp_path):
    """y_{t-1} = -(1/2) eps_t is dated strictly in the past: J1 = -1."""
    path = tmp_path / "past.json"
    path.write_text('{"s":1,"K":1,"H":0,"q":1,"gamma":[1],'
                    '"A":[{"k":1,"h":0,"matrix":[["2"]]}],"wold":[[["1"]]]}')
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: J1 = -1 < 0: the system is dated strictly in the past; "
        "causal factorization is not defined for this configuration\n"
    )


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("'s'", lambda d: d.update(s=True)),
        ("'K'", lambda d: d.update(K=False)),
        ("'H'", lambda d: d.update(H=True)),
        ("'q'", lambda d: d.update(q=True)),
        ("gamma", lambda d: d.update(gamma=[True, False])),
        ("'k'", lambda d: d["A"][0].update(k=False)),
        ("'h'", lambda d: d["A"][1].update(h=True)),
        ("A[0,0]", lambda d: d["A"][0].update(matrix=[[True]])),
        ("wold[0]", lambda d: d.update(wold=[[[True]]])),
        # parsed entries are reused within a document, and true == 1 hashes like 1
        pytest.param("wold[0]", lambda d: (d["A"][1].update(matrix=[[1]]),
                                           d.update(wold=[[[True]]])), id="wold[0]-after-1"),
        ("xi", lambda d: d.update(xi=True)),
        ("'A'", lambda d: d.update(A=1)),
        ("'A'", lambda d: d.update(A=[1])),
        ("'wold'", lambda d: d.update(wold=5)),
    ],
)
def test_json_booleans_are_not_numbers(capsys, tmp_path, field, mutate):
    """bool subclasses int, but a JSON true or false is neither an integer nor
    a rational.  Read as 1 and 0, each of these documents is a valid model,
    also where a true follows an integer 1 elsewhere in the document.
    The last three put a number where a list of A objects or of wold matrices
    belongs; each is a format error naming the field, not a traceback."""
    doc = json.loads(INDETERMINATE_SCALAR)
    mutate(doc)
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err, err
