"""One computation per artifact: the memoized pipeline, closed-form factor
adjugates, lazy imports, and byte-stable CLI output."""

import dataclasses
import gc
import importlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import recausal
from recausal.cli import main
from recausal.dimension import dimension_report, run_pipeline
from recausal.exactalg import det_adjugate
from recausal.model import parse_model, validate_semantics
from recausal.solver import (
    FactorizationError,
    UnsupportedModelError,
    factor_stable_unstable,
    solve_causal,
    verify_solution,
)
from conftest import SIMS_JSON, planted_models

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COUNTED = ("model.build_pi", "canon.smith_form", "exactalg.det_adjugate")


def count_calls(monkeypatch, names=COUNTED):
    """Count calls of recausal functions wherever the package binds them."""
    counts = dict.fromkeys(names, 0)
    mods = [mod for n, mod in sys.modules.items() if n == "recausal" or n.startswith("recausal.")]
    for name in names:
        modname, fname = name.split(".")
        orig = getattr(importlib.import_module("recausal." + modname), fname)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def analyze_solve_verify(m):
    validate_semantics(m)
    dimension_report(m)
    sr = solve_causal(m)
    assert sr.transfer_num is not None
    assert verify_solution(m, sr)["ok"]
    return sr


def solvable_planted_s4():
    for m in planted_models():
        if m.s == 4 and solve_causal(m).transfer_num is not None:
            return m
    raise AssertionError("no solvable planted s = 4 model")


@pytest.mark.parametrize("which", ["sims", "planted-s4"])
def test_each_artifact_computed_once(monkeypatch, which):
    if which == "sims":
        m = parse_model(SIMS_JSON)
    else:
        m = dataclasses.replace(solvable_planted_s4())  # same model, empty memo
    counts = count_calls(monkeypatch)
    analyze_solve_verify(m)
    assert counts == dict.fromkeys(COUNTED, 1)


def test_cli_analyze_computes_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch)
    assert main(["analyze", str(ROOT / "models" / "sims.json")]) == 0
    capsys.readouterr()
    assert counts["canon.smith_form"] == 1
    assert counts["exactalg.det_adjugate"] == 1


def test_views_share_artifacts():
    m = parse_model(SIMS_JSON)
    a, b = run_pipeline(m), run_pipeline(m)
    assert a.sf is b.sf and a.cs is b.cs and a.pi is b.pi and a.roots is b.roots
    assert solve_causal(m).pipeline.sf is a.sf


def test_validate_semantics_touches_only_pi_and_sf():
    m = parse_model(SIMS_JSON)
    validate_semantics(m)
    assert set(m.artifacts) == {"pi", "sf"}


def test_dropped_model_frees_its_artifacts():
    """No reference cycle: refcounting alone frees the memo with the model."""
    m = parse_model(SIMS_JSON)
    sr = solve_causal(m)
    ref = weakref.ref(sr.pipeline.sf)
    gc.disable()
    try:
        del m, sr
        assert ref() is None
    finally:
        gc.enable()


def test_import_loads_neither_sympy_nor_numpy():
    src = os.path.dirname(os.path.dirname(recausal.__file__))
    code = "import sys, recausal; print([m for m in ('sympy', 'numpy') if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
def test_cli_commands_do_not_load_sympy(command):
    src = os.path.dirname(os.path.dirname(recausal.__file__))
    code = (
        "import sys; from recausal.cli import main; "
        f"main([{command!r}, {str(ROOT / 'models' / 'sims.json')!r}]); "
        "print('sympy' in sys.modules, file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert f'"command": "{command}"' in out.stdout
    assert out.stderr.strip() == "False"


def _factor_oracle_models(corpus):
    for m in list(corpus) + planted_models():
        pipe = run_pipeline(m)
        try:
            fac = factor_stable_unstable(pipe.sf, pipe.pi.J1, m.xi)
        except (FactorizationError, UnsupportedModelError):
            continue
        yield fac


def test_closed_form_factor_adjugates_match_oracle(corpus):
    n = 0
    for fac in _factor_oracle_models(corpus):
        assert (fac.det_u, fac.adj_u) == det_adjugate(fac.pi_u)
        assert (fac.det_s, fac.adj_s) == det_adjugate(fac.pi_s)
        n += 1
    assert n >= 49


GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(capsys, case):
    model, command = case.split("_")
    path = GOLDEN / f"{model}.json"  # a model kept only for its golden output
    if not path.exists():
        path = ROOT / "models" / f"{model}.json"
    code = main([command, str(path)])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case}.stdout").read_text()
    assert captured.err == GOLDEN_CASES[case]["stderr"]
    assert code == GOLDEN_CASES[case]["exit"]
