"""One computation per artifact: the model's memoized stages, lazy imports, and
byte-stable CLI output."""

import ast
import gc
import importlib.util
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recausal
from recausal import canon, exactalg
from recausal.canon import (
    FactorizationError, LocalSmith, RedundantEquationsError, RootClassification,
    UnitCircleRootError, classify_roots,
)
from recausal.cli import main
from recausal.dimension import dimension_report, genericity_probe
from recausal.exactalg import Poly, RationalMatrix
from recausal.model import (
    ConstraintSystem, PiPolynomial, REModel, build_pi, parse_model, validate_semantics,
)
from recausal.solver import (
    SolutionReport, UnsupportedModelError, solve_causal, verify_solution,
)
from conftest import (
    SIMS_JSON, deep_planted_models, ladder_shaped_models, planted_model, planted_models, random_model,
    ref_squarefree_factors, serialize_model,
)
from digest import DIGEST, OUTCOMES, digest, model_sets, outcomes

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
COUNTED = (
    "model.build_pi", "canon.smith_form", "exactalg.det_adjugate", "solver._adj_product",
)
# adj pi and the solve's product adj pi [M's free columns | M ker L | W], zeta(z) and w(z) in it
ADJ_PRODUCT = ("exactalg.det_adjugate", "solver._adj_product")
GENERIC = GOLDEN / "generic.json"  # plain, det pi(0) != 0, J1 = H - 1, solvable


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
    """sims is predetermined with G > 0 and planted-s4 plain with G > 0: the g and
    ranks of both come from the row reduction, so neither computes a global Smith form.
    The coefficient stack [zeta | w] is one stage for the systems, the bounds and the solve.
    Only sims, predetermined, maps rows onto the solve's unknowns: its causal rows, and its
    stack once for the solve's product; a plain model's unknowns are all sH entries of h."""
    if which == "sims":
        m = parse_model(SIMS_JSON)
    else:
        m = solvable_planted_s4()._replace()  # same model, empty memo
    stack = ("model.build_m_stack", "model.on_unknowns")
    counts = count_calls(monkeypatch, COUNTED + stack)
    analyze_solve_verify(m)
    assert counts == {**dict.fromkeys(COUNTED, 1), "canon.smith_form": 0,
                      "model.build_m_stack": 1, "model.on_unknowns": 2 if which == "sims" else 0}


def test_only_the_solve_lays_out_its_unknowns(monkeypatch, corpus, predetermined_probe):
    """The stage `rf`, m_stack on the solve's unknowns, is read by the solve's product with
    adj pi alone: analyze, constraints (C) and probe build it on no model of the five sets,
    nor on a probe trial's model, and a solve past the split builds it exactly when the causal
    rows are consistent.  m_stack, [zeta | w], needs no local data and no pi."""
    trials, perturb = [], recausal.dimension._perturb

    def recorded(m, rng):
        trials.append(perturb(m, rng))
        return trials[-1]

    monkeypatch.setattr(recausal.dimension, "_perturb", recorded)
    models = (list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models()
              + deep_planted_models())
    n_rf = n_pred = n_none = 0
    for m in models:
        fresh = m._replace()
        assert fresh.m_stack is fresh.m_stack and set(fresh.artifacts) == {"m_stack"}
        m = m._replace()
        dimension_report(m)
        validate_semantics(m)
        m.cs.C
        genericity_probe(m, trials=2)
        assert len(trials) == 2 and not any("rf" in t.artifacts for t in [m, *trials])
        trials.clear()
        try:
            m.split
        except (FactorizationError, UnsupportedModelError, UnitCircleRootError):
            continue
        solve_causal(m)
        assert ("rf" in m.artifacts) == m.causal.consistent
        n_rf += "rf" in m.artifacts
        n_pred += m.predetermined and "rf" in m.artifacts
        n_none += not m.causal.consistent
    assert (n_rf, n_pred, n_none) == (54, 13, 30), (n_rf, n_pred, n_none)


def test_cli_analyze_computes_once(monkeypatch, capsys):
    counts = count_calls(monkeypatch)
    assert main(["analyze", str(ROOT / "models" / "sims.json")]) == 0
    capsys.readouterr()
    assert counts["canon.smith_form"] == 0 and counts["model.build_pi"] == 1
    assert counts["exactalg.det_adjugate"] == counts["solver._adj_product"] == 0


def test_cli_analyze_skips_smith_form_when_det_pi0_is_nonzero(monkeypatch, capsys):
    """The generic model's constraints read pi = I I pi, with no Smith form."""
    counts = count_calls(monkeypatch)
    assert main(["analyze", str(GENERIC)]) == 0
    capsys.readouterr()
    assert counts == {"model.build_pi": 1, "canon.smith_form": 0, **dict.fromkeys(ADJ_PRODUCT, 0)}


# the three det pi(0) != 0 cases and the classification each solve ends in
MAKE = {
    "refused": lambda: random_model(random.Random(3), 3, 1, 1),
    "no-solution": lambda: random_model(random.Random(8), 1, 1, 1, kill_a0h=True),
    "solvable": lambda: parse_model(GENERIC.read_text()),
}
OUTCOME = {"refused": "refused", "no-solution": "no_causal_solution", "solvable": "indeterminate"}


def test_counts_make_no_fraction_product(monkeypatch, corpus):
    """validate_semantics, dimension_report and genericity_probe count on
    integer rows: no linear solve (`_solve_rows`, which only the solve and its min-norm
    point run), and no system builds its Fraction C, D and rhs, in either flavor, with
    g > J1 or J1 < H, or at H = 0.  Reading C builds them; the kernel is read off the
    elimination that counted rank_w."""
    counts, systems = count_calls(monkeypatch, ("exactalg._solve_rows",)), []

    def recorded(cs, *args, _init=ConstraintSystem.__init__):
        _init(cs, *args)
        systems.append(cs)

    monkeypatch.setattr(ConstraintSystem, "__init__", recorded)
    models = [parse_model(SIMS_JSON), parse_model(GENERIC.read_text()),
              parse_model((GOLDEN / "defect.json").read_text()),
              *(m._replace() for m in corpus if m.H == 0),
              *planted_models(), *ladder_shaped_models()]
    for m in models:
        validate_semantics(m)
        dimension_report(m)
        genericity_probe(m, trials=2)
    assert counts == {"exactalg._solve_rows": 0}
    assert {cs.flavor for cs in systems} == {"plain", "predetermined"}
    assert not any("_matrices" in vars(cs) for cs in systems)
    cs = models[0].cs  # sims: predetermined
    assert cs.flavor == "predetermined" and len(cs.kernel) == cs.kernel_dim
    assert not any(counts.values()) and "_matrices" not in vars(cs), counts
    assert cs.C.cols == cs.effective_unknowns
    assert "_matrices" in vars(cs)


@pytest.mark.parametrize("which", ["sims", "planted-s4", "refused", "no-solution", "solvable"])
def test_adj_and_zeta_only_for_a_solve_past_the_split(monkeypatch, which):
    """validate + analyze build neither adj pi nor the solve's product, in which
    zeta(z) is built, nor the split.  Only solve_causal builds them, once
    factor_stable_unstable has accepted the split and the causal rows are consistent,
    as in every case here: a refused model builds none, and a solved one each once.  adj pi and the split are built once however
    often they are read (two solves); the product, which no stage keeps, once
    per solve."""
    make = {"sims": lambda: parse_model(SIMS_JSON), "planted-s4": solvable_planted_s4, **MAKE}
    m = make[which]()._replace()  # an empty memo
    split = "solver.factor_stable_unstable"
    counts = count_calls(monkeypatch, (*ADJ_PRODUCT, split))
    validate_semantics(m)
    dimension_report(m)
    assert counts == {**dict.fromkeys(ADJ_PRODUCT, 0), split: 0}
    try:
        sr = solve_causal(m)
    except FactorizationError:
        assert which == "refused" and counts == {**dict.fromkeys(ADJ_PRODUCT, 0), split: 1}
        return
    assert which != "refused"
    assert counts == {**dict.fromkeys(ADJ_PRODUCT, 1), split: 1}
    if sr.transfer_num is not None:
        assert verify_solution(m, sr)["ok"]
    assert solve_causal(m).classification == sr.classification
    assert counts == {"exactalg.det_adjugate": 1, "solver._adj_product": 2, split: 1}


def _assert_adj_only_past_consistent_rows(m) -> bool | None:
    """A solve past the split builds adj pi and its product once if the causal rows at
    z = 0 are consistent, and neither if not, where it ends in no_causal_solution.
    Returns the consistency, or None when the split is refused."""
    m = m._replace()  # an empty memo
    with pytest.MonkeyPatch.context() as mp:
        counts = count_calls(mp, ADJ_PRODUCT)
        try:
            sr = solve_causal(m)
        except (FactorizationError, UnsupportedModelError):
            return None
    consistent = m.causal.consistent
    assert ("adj" in m.artifacts) == consistent, (m.s, m.H, m.gamma)
    assert counts == dict.fromkeys(ADJ_PRODUCT, int(consistent)), (m.s, m.H, m.gamma)
    assert consistent or sr.classification == "no_causal_solution", (m.s, m.H, m.gamma)
    return consistent


def test_no_adj_past_inconsistent_causal_rows(corpus, predetermined_probe):
    """On the five sets, both verdicts of the rows occur past the split."""
    seen = [_assert_adj_only_past_consistent_rows(m) for m in (
        list(corpus) + list(predetermined_probe) + ladder_shaped_models() + planted_models()
        + deep_planted_models())]
    assert (seen.count(True), seen.count(False)) == (54, 30), (seen.count(True), seen.count(False))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from((2, 3)), st.sampled_from((1, 2)),
       st.integers(1, 3), st.booleans())
def test_no_adj_past_inconsistent_causal_rows_on_drawn_planted_models(
        seed, s, H, g_last, predetermined):
    """The same on `planted_model` draws, G = g_last > 0, both flavors."""
    m = planted_model(random.Random(seed), s, H, g_last, predetermined=predetermined)
    assert m.pi.det[0] == 0
    _assert_adj_only_past_consistent_rows(m)


@pytest.mark.parametrize("which", ["sims", "planted-s4", "no-solution", "solvable"])
def test_solve_reads_adj_as_integer_rows(monkeypatch, which):
    """adj pi stays the pair (A, L) from the Faddeev-LeVerrier pass to the solve's
    product: with pi built, a first solve packs only pi (`_pack` in det_adjugate) and a
    second, with adj memoized, makes no `_numerators` call at all."""
    make = {"sims": lambda: parse_model(SIMS_JSON), "planted-s4": solvable_planted_s4, **MAKE}
    m = make[which]()._replace()  # an empty memo
    m.pi
    counts = count_calls(monkeypatch, ("exactalg._numerators", "exactalg.det_adjugate"))
    sr = solve_causal(m)
    assert counts == {"exactalg._numerators": 1, "exactalg.det_adjugate": 1}
    assert solve_causal(m) == sr and counts["exactalg._numerators"] == 1
    A, L = m.adj
    assert L > 0 and len(A) == m.s and all(type(c) is int for row in A for f in row for c in f)


def test_every_elimination_sees_integer_rows(monkeypatch):
    """Every row src eliminates holds Python ints alone: `_row_echelon`, rebound wherever src
    binds it, sees no Fraction (nor a bool) in validate, analyze, the system's C, probe, solve
    and verify on the five sets, the linear solves of `_solve_rows` among them."""
    calls, bad, echelon = [0], set(), exactalg._row_echelon

    def spy(entries, ncols):
        calls[0] += 1
        bad.update(type(x).__name__ for row in entries for x in row if type(x) is not int)
        return echelon(entries, ncols)

    for mod in [mod for n, mod in sys.modules.items() if n.split(".")[0] == "recausal"]:
        for attr, val in list(vars(mod).items()):
            if val is echelon:
                monkeypatch.setattr(mod, attr, spy)
    refusals = (RedundantEquationsError, UnitCircleRootError, UnsupportedModelError,
                FactorizationError)
    for m in (m._replace() for models in model_sets().values() for m in models):
        validate_semantics(m)
        for step in (dimension_report, lambda m: m.cs.C, lambda m: genericity_probe(m, trials=2)):
            try:
                step(m)
            except refusals:
                pass
        try:
            sr = solve_causal(m)
        except refusals:
            continue
        if sr.transfer_num is not None:
            verify_solution(m, sr)
    assert not bad and calls[0] > 0, (calls, bad)


def test_eliminations_write_into_no_row(monkeypatch):
    """`_row_echelon` and `_solve_rows` reorder and replace the entries of the list they are
    handed and write into none of its rows, so their callers hand them new lists of rows
    they share (ConstraintSystem its product rows, the solve the causal stage's echelon
    rows, check_rank_bounds slices of the memoized m_stack): after validate, analyze, C,
    probe, solve and verify on the golden and planted models, every row handed to either,
    rebound wherever src binds it, holds what it held when it was handed over."""
    handed = []  # (row, a copy of it when handed over)

    def spy(fn):
        def wrapper(rows, *args):
            handed.extend((row, list(row)) for row in rows)
            return fn(rows, *args)
        return wrapper

    for fn in (exactalg._row_echelon, exactalg._solve_rows):
        wrapped = spy(fn)
        for mod in [mod for n, mod in sys.modules.items() if n.split(".")[0] == "recausal"]:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapped)
    refusals = (RedundantEquationsError, UnitCircleRootError, UnsupportedModelError,
                FactorizationError)
    paths = [*(ROOT / "models").glob("*.json"), *GOLDEN.glob("*.json")]
    models = [parse_model(p.read_text()) for p in paths
              if p.name not in ("cases.json", "digest.json", "outcomes.json")]
    for m in [*models, *planted_models()]:
        validate_semantics(m)
        for step in (dimension_report, lambda m: m.cs.C, lambda m: genericity_probe(m, trials=2)):
            try:
                step(m)
            except refusals:
                pass
        try:
            sr = solve_causal(m)
        except refusals:
            continue
        if sr.transfer_num is not None:
            verify_solution(m, sr)
    assert handed and all(row == copy for row, copy in handed)


def test_pi_rows_are_derived_once(monkeypatch, capsys, tmp_path):
    """pi's integer rows are derived from its Poly entries once per pi, by `build_pi`,
    which keeps them in `PiPolynomial.numerators` for determinant and local_form:
    on the five sets validate, analyze, constraints and probe derive them
    nowhere else, and solve and verify once more, inside `det_adjugate`."""
    from recausal import exactalg, model

    numerators, build, calls, pis = exactalg._numerators, model.build_pi, [], []

    def numerators_spy(rows):
        frame, chain = sys._getframe(1), []
        while frame is not None:
            chain.append(frame.f_code.co_name)
            frame = frame.f_back
        calls.append((rows, chain))
        return numerators(rows)

    def build_spy(m):
        pis.append(build(m))
        return pis[-1]

    for mod in [mod for n, mod in sys.modules.items() if n.split(".")[0] == "recausal"]:
        for attr, val in list(vars(mod).items()):
            for orig, spy in ((numerators, numerators_spy), (build, build_spy)):
                if val is orig:
                    monkeypatch.setattr(mod, attr, spy)
    path, again_in_solve, n_models = tmp_path / "model.json", 0, 0
    for m in (m for models in model_sets().values() for m in models):
        path.write_text(serialize_model(m))
        for command in ("validate", "analyze", "constraints", "probe", "solve", "verify"):
            del calls[:], pis[:]
            if command == "validate":
                validate_semantics(m._replace())  # an empty memo
            else:
                main([command, str(path)])
            capsys.readouterr()
            on_pi = [chain for rows, chain in calls if any(rows is pp.pi.entries for pp in pis)]
            again = [chain for chain in on_pi if chain[0] != "build_pi"]
            assert pis and len(on_pi) - len(again) == len(pis), (command, [c[:3] for c in again])
            if command in ("solve", "verify"):
                assert len(again) <= 1 and all("det_adjugate" in chain for chain in again)
                again_in_solve += len(again)
            else:
                assert again == [], (command, again)
        assert m.pi.numerators == numerators(m.pi.pi.entries)
        n_models += 1
    assert n_models == 314 and again_in_solve > 0


@pytest.mark.parametrize("which", ["refused", "no-solution", "solvable"])
def test_smith_form_never_runs_when_det_pi0_is_nonzero(monkeypatch, which):
    """validate + analyze + solve (+ verify) of a det pi(0) != 0 model computes
    no global Smith form and leaves none in the memo."""
    m, outcome = MAKE[which](), OUTCOME[which]
    assert build_pi(m).det[0] != 0
    counts = count_calls(monkeypatch)
    validate_semantics(m)
    dimension_report(m)
    try:
        sr = solve_causal(m)
    except FactorizationError:
        assert outcome == "refused"
    else:
        assert sr.classification == outcome
        if sr.transfer_num is not None:
            assert verify_solution(m, sr)["ok"]
    solved = dict.fromkeys(ADJ_PRODUCT, int(which != "refused"))
    assert counts == {"model.build_pi": 1, "canon.smith_form": 0, **solved}
    assert "sf" not in m.artifacts


def test_smith_form_runs_only_for_recausal_smith(monkeypatch, capsys, tmp_path):
    """validate, analyze, constraints, probe, solve and verify compute no global Smith
    form on any model of the five sets, whatever its flavor and G; `recausal smith`
    computes one."""
    counts, seen, path = count_calls(monkeypatch, ("canon.smith_form",)), set(), tmp_path / "m.json"
    for m in (m for models in model_sets().values() for m in models):
        path.write_text(serialize_model(m))
        validate_semantics(m._replace())
        for command in ("analyze", "constraints", "probe", "solve", "verify"):
            main([command, str(path)])
        capsys.readouterr()
        assert counts["canon.smith_form"] == 0, m.gamma
        seen.add((m.predetermined, m.pi.det[0] == 0))
    assert len(seen) == 4
    assert main(["smith", str(path)]) == 0 and counts["canon.smith_form"] == 1
    capsys.readouterr()


def test_views_share_artifacts():
    m = parse_model(SIMS_JSON)
    sf, cs, pi, roots, local = m.sf, m.cs, m.pi, m.roots, m.local
    assert m.sf is sf and m.cs is cs and m.pi is pi and m.roots is roots
    assert m.local is local
    solve_causal(m)
    assert m.sf is sf


STAGES = ("pi", "adj", "sf", "local", "ker_l", "roots", "split", "m_stack", "rf", "causal",
          "plain_cs", "cs")


def test_stages_cannot_be_assigned():
    """A stage is a read-only property: only its first read fills the memo."""
    m = parse_model(SIMS_JSON)
    pi = m.pi
    for name in STAGES:
        assert isinstance(getattr(REModel, name), property), name
        with pytest.raises(AttributeError):
            setattr(m, name, pi)
    with pytest.raises(AttributeError):
        m.pi = pi
    assert m.pi is pi and set(m.artifacts) == {"pi"}


def test_validate_semantics_touches_only_pi_and_local():
    """validate_semantics reads g from the local Smith data, which the row
    reduction gives whatever det pi(0) is: sims has det pi(0) = 0."""
    for m in (parse_model(SIMS_JSON), parse_model(GENERIC.read_text())):
        validate_semantics(m)
        assert set(m.artifacts) == {"pi", "local"}


# the attributes of `ConstraintSystem`, whose Fraction parts are built on first read
CS_FIELDS = ("C", "D", "rank_w", "kernel", "flavor", "effective_unknowns", "rhs", "kernel_dim")


def test_records_keep_their_fields_and_defaults():
    assert REModel._fields == ("s", "K", "H", "q", "A", "gamma", "wold", "xi")
    assert REModel._field_defaults == {"xi": Fraction(1)}
    assert PiPolynomial._fields == ("pi", "J0", "J1", "det", "numerators")
    assert RootClassification._fields == (
        "zero_multiplicity", "stable_roots", "unstable_roots", "xi", "discs",
    )
    assert RootClassification._field_defaults == {"discs": ()}
    m = parse_model(SIMS_JSON)
    assert LocalSmith._fields == ("g", "p_inv")
    assert isinstance(m.local, LocalSmith) and isinstance(m.cs, ConstraintSystem)
    assert all(hasattr(m.cs, f) for f in CS_FIELDS)
    assert tuple(dimension_report(m)) == (
        "free_parameters", "kernel_dim", "rank_w", "upper_bound", "lower_bound",
        "special_case_used", "distinctness_guaranteed", "flavor", "effective_unknowns", "bounds",
    )
    assert SolutionReport._fields == (
        "classification", "indeterminacy_dim", "h", "h_particular", "kernel", "transfer_num",
        "transfer_den", "kernel_point",
    )


def test_replaced_model_starts_with_an_empty_memo():
    m = parse_model(SIMS_JSON)
    m.cs
    same, wider = m._replace(), m._replace(xi=Fraction(2))
    assert same == m and same.artifacts == {} and {"pi", "cs"} <= set(m.artifacts)
    assert wider.xi == 2 and wider != m and wider.artifacts == {}
    cs, old = same.cs, m.artifacts["cs"]
    assert cs is not old and [getattr(cs, f) for f in CS_FIELDS] == [getattr(old, f) for f in CS_FIELDS]


def test_dropped_model_frees_its_artifacts():
    """No reference cycle: refcounting alone frees the memo with the model,
    also the constraint system, which keeps a copy of the model for its matrices."""
    m = parse_model(SIMS_JSON)
    sr = solve_causal(m)
    dimension_report(m)
    refs = [weakref.ref(m.sf), weakref.ref(m.artifacts["cs"])]
    gc.disable()
    try:
        del m, sr
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_import_loads_neither_sympy_nor_numpy():
    """Importing every module of the package loads neither; the package itself
    binds no name but __version__ (the submodules bind themselves on import)."""
    src = os.path.dirname(os.path.dirname(recausal.__file__))
    code = (
        "import sys, recausal; print([k for k in vars(recausal) if not k.startswith('__')]); "
        "import recausal.canon, recausal.cli, recausal.constraints, recausal.dimension, "
        "recausal.exactalg, recausal.model, recausal.solver; "
        "print([m for m in ('sympy', 'numpy') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n") == ["[]", "[]", ""]
    assert recausal.__version__


def _cli_modules(argv):
    """The modules a fresh interpreter has loaded after recausal.cli.main(argv)."""
    src = os.path.dirname(os.path.dirname(recausal.__file__))
    code = (
        f"import sys; from recausal.cli import main; main({argv!r}); "
        f"print(' '.join(sys.modules), file=sys.stderr)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert f'"command": "{argv[0]}"' in out.stdout
    return set(out.stderr.split())


def _cli_loads(argv, module):
    """Whether a fresh interpreter has `module` loaded after recausal.cli.main(argv)."""
    return module in _cli_modules(argv)


# the layers a command does not run, so a cold call of it never compiles them
UNUSED_LAYERS = {
    "analyze": ("solver",),
    "probe": ("solver",),
    "constraints": ("solver", "dimension"),
    "smith": ("solver", "dimension", "constraints"),
    "solve": ("dimension", "constraints"),
    "verify": ("dimension", "constraints"),
    "simulate": ("dimension", "constraints"),
}


@pytest.mark.parametrize("command", sorted(UNUSED_LAYERS))
def test_cli_command_loads_only_its_layers(command):
    """No command imports argparse or a recausal module it does not run."""
    loaded = _cli_modules([command, str(ROOT / "models" / "sims.json")])
    assert {"recausal.canon", "recausal.exactalg", "recausal.model"} <= loaded
    assert "argparse" not in loaded
    assert not loaded & {"recausal." + layer for layer in UNUSED_LAYERS[command]}


# layers that spans.TARGETS still names but src no longer has, so their metrics read 0:
# the predetermined count's selectors left with the E(0) selector system, the
# pipeline, which the model's own stages replaced, left once it only returned the model,
# rank_kernel once the solve counted its heads by the causal stage's effective_unknowns,
# build_predetermined_system, which only returned the stage `causal`, and solve_affine once
# both src solves passed their integer rows to `_solve_rows` directly
REMOVED_LAYERS = ("constraints.build_selectors", "dimension.run_pipeline", "exactalg.rank_kernel",
                  "constraints.build_predetermined_system", "exactalg.solve_affine")


def test_traced_layers_stay_bound_under_their_module_names():
    """perfbench's span recorder wraps each layer it times by module and name
    (spans.TARGETS): a moved function must stay bound where the recorder looks."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, names in spans.TARGETS.items():
        mod = importlib.import_module("recausal." + modname)
        names = [name for name in names if f"{modname}.{name}" not in REMOVED_LAYERS]
        assert all(callable(getattr(mod, name, None)) for name in names), modname
    assert not any(hasattr(importlib.import_module("recausal." + name.split(".")[0]),
                           name.split(".")[1]) for name in REMOVED_LAYERS)


def test_perfbench_reads_of_src_resolve(monkeypatch):
    """What perfbench's worker and span recorder read of src, besides the names that
    spans.TARGETS wraps: run_case answers or raises a refusal that worker.REFUSALS names,
    planted_facts reads g and the unstable roots off pi, and spans.MEASURES reads the bit
    sizes off what build_plain_system and build_transfer return.  On models/sims.json, a
    solvable planted draw and a refused ladder draw; handle and main, which arm and catch
    SIGALRM, are not run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    worker, spans = (_load_path(ROOT / "perfbench" / f"{name}.py") for name in ("worker", "spans"))
    gen = importlib.import_module("gen")
    returns = []  # (layer, what the layer returned)

    def capture(layer, fn):
        def wrapper(*args, **kwargs):
            returns.append((layer, out := fn(*args, **kwargs)))
            return out
        return wrapper

    for layer in ("constraints.build_plain_system", "solver.build_transfer"):
        modname, name = layer.split(".")
        mod = importlib.import_module("recausal." + modname)
        monkeypatch.setattr(mod, name, capture(layer, getattr(mod, name)))
    texts = [SIMS_JSON, gen.to_json(gen.planted_model(101, 0)),
             gen.to_json(gen.ladder_model(101, 1))]
    refused = 0
    for text in texts:
        try:
            worker.run_case(text)
        except Exception as exc:
            assert type(exc).__name__ in worker.REFUSALS, exc
            refused += 1
        g, unstable = worker.planted_facts(parse_model(text))
        assert type(g) is list and all(type(gi) is int for gi in g) and type(unstable) is int
    assert refused == 1 and {layer for layer, _ in returns} == {
        "constraints.build_plain_system", "solver.build_transfer"}
    assert all(type(spans.MEASURES[layer][1](out)) is int for layer, out in returns)


def _load_path(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_src_function_has_a_src_reader():
    """Code only the tests read lives in tests/: every src function and method, dunders
    aside, is read by some src line.  A function counts as read by its name as a name or
    an attribute, a method (a def in a class body) only as an attribute, since a local
    variable of the same name does not call it."""
    defs, names, attrs = [], set(), set()
    for path in sorted((ROOT / "src" / "recausal").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defs.append((f"{path.name}:{node.lineno}", node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unread = [f"{name} ({where})" for where, name, method in defs
              if name not in attrs and (method or name not in names)]
    assert not unread, f"src functions no src line reads: {unread}"


def _bare_loads(module):
    """Whether a fresh interpreter has `module` loaded before it runs any code."""
    code = f"import sys; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_commands_do_not_load_dataclasses(command, module):
    """The records are named tuples, so no command imports dataclasses (which
    imports inspect) unless the interpreter itself has at start."""
    sims = str(ROOT / "models" / "sims.json")
    assert not _cli_loads([command, sims], module) or _bare_loads(module)


@pytest.mark.parametrize("command", ["solve", "verify", "simulate"])
def test_cli_commands_do_not_load_sympy(command):
    assert not _cli_loads([command, str(ROOT / "models" / "sims.json")], "sympy")


@pytest.mark.parametrize(
    "command, model",
    [(c, "sims") for c in ("analyze", "smith", "constraints", "solve", "verify", "probe")]
    + [("analyze", "planted"), ("solve", "planted"), ("simulate", "sims")],
)
def test_cli_commands_do_not_load_numpy(command, model, tmp_path):
    path = ROOT / "models" / "sims.json"
    if model == "planted":
        path = tmp_path / "planted.json"
        path.write_text(serialize_model(planted_models()[0]))
    # simulate is the one command that does float arithmetic with numpy
    assert _cli_loads([command, str(path)], "numpy") == (command == "simulate")


def test_simulate_without_numpy_is_one_error_line():
    src = os.path.dirname(os.path.dirname(recausal.__file__))
    code = (
        "import sys; sys.modules['numpy'] = None; from recausal.cli import main; "
        f"sys.exit(main(['simulate', {str(ROOT / 'models' / 'sims.json')!r}]))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == "error: simulate needs numpy, which cannot be imported\n"


def _yun_factor_count(det):
    """Number of distinct root multiplicities of det / z^G, by sympy's sqf_list."""
    import sympy

    z = sympy.Symbol("z")
    reduced = det.coeffs[det.zero_multiplicity():]
    expr = sum(sympy.Rational(c.numerator, c.denominator) * z**k for k, c in enumerate(reduced))
    return len([f for f, _k in sympy.sqf_list(expr)[1] if sympy.degree(f, z) > 0])


def _scalar_model(f: Poly) -> REModel:
    """The scalar model with pi(z) = f(z), of degree d >= 2: K = 1 and H = d - 1, A_10
    holds the leading coefficient of f and A_0h that of z^(H - h)."""
    c, d = f.coeffs, int(f.degree)
    A = {(0, h): [[c[d - 1 - h]]] for h in range(d)}
    A[1, 0] = [[c[d]]]
    return REModel(
        s=1, K=1, H=d - 1, q=1, A={k: RationalMatrix(v) for k, v in A.items()},
        gamma=(1,) + (0,) * (d - 1), wold=(RationalMatrix([[1]]),),
    )


def _scalar_model_with_a_fine_root():
    """pi(z) = (z - r)(z - 3) with r = 1/3 + 2^-60: the first certified discs
    are too coarse to round the unstable factor, so the split refines them."""
    r = Fraction(1, 3) + Fraction(1, 2**60)
    return _scalar_model(Poly([-r, 1]) * Poly([-3, 1]))


def _scalar_model_with_a_cluster():
    """pi(z) = (z - 1/3)(z - 1/3 - 2^-47)(z + 5/2): squarefree, but the float discs
    of the two roots 2^-47 apart meet, so the exact steps classify det pi, and
    the split refines their discs to round the unstable factor."""
    r = Fraction(1, 3)
    return _scalar_model(
        Poly([-r, 1]) * Poly([-r - Fraction(1, 2**47), 1]) * Poly([Fraction(5, 2), 1]))


@pytest.mark.parametrize("which", ["sims", "generic", "planted", "refined", "declined"])
def test_start_points_run_once_per_yun_factor(monkeypatch, which):
    """validate + analyze + solve + verify seed det pi / z^G once, in
    classify_roots' first float pass: it certifies a squarefree det itself
    (no squarefree proof runs), and a squarefree det whose floats decline
    resumes its sweeps.  Only a det with a repeated root is seeded again,
    once per Yun factor.  The split resumes from the discs that classified
    det pi."""
    m = {
        "sims": lambda: parse_model(SIMS_JSON),
        "generic": lambda: random_model(random.Random(3), 3, 1, 1),
        "planted": lambda: planted_models()[8],  # two Yun factors
        "refined": _scalar_model_with_a_fine_root,
        "declined": _scalar_model_with_a_cluster,
    }[which]()
    mod_p = "exactalg._coprime_to_derivative_mod_p"
    counts = count_calls(monkeypatch, ("canon._start_points", mod_p))
    resumed = []

    def resumed_discs(f, xi=1, start=None, seeds=None, _discs=canon.root_discs):
        for disc in _discs(f, xi, start, seeds):
            if start is not None:  # classify_roots starts afresh, the split resumes
                resumed.append(disc[0])
            yield disc

    monkeypatch.setattr(canon, "root_discs", resumed_discs)
    validate_semantics(m)
    dimension_report(m)
    try:
        sr = solve_causal(m)
    except FactorizationError:
        assert which == "generic"
    else:
        if sr.transfer_num is not None:
            verify_solution(m, sr)
    yun = _yun_factor_count(m.pi.det)
    first_pass = which in ("sims", "generic", "refined")  # certified by it
    assert (counts[mod_p] == 0) == first_pass
    assert counts["canon._start_points"] == (1 if yun == 1 else 1 + yun)
    assert (yun == 1) == (which != "planted")
    assert bool(resumed) == (which in ("refined", "declined"))


def test_classify_roots_needs_no_gcd_on_squarefree_dets(monkeypatch, corpus):
    """Every corpus det pi / z^G is squarefree, so no Yun gcd runs on it, and
    where the first float pass certifies it (on `_start_points`' first yield)
    its discs are the proof: no mod-p certificate runs either.  A planted det
    with a repeated root still gets Yun's factors."""
    dets = [(m.pi.det, m.xi) for m in corpus]
    repeated = planted_models()[8].pi.det
    mod_p = "exactalg._coprime_to_derivative_mod_p"
    counts = count_calls(monkeypatch, ("exactalg.poly_gcd", mod_p))
    certified = 0
    for det, xi in dets:
        f = det.shift(-det.zero_multiplicity()).monic()
        seeds = f.degree and next(canon._start_points(f))  # None if its points still move
        first = bool(seeds) and canon._float_yield(f, seeds, xi) is not None
        proofs = counts[mod_p]
        try:
            classify_roots(det, xi)
        except UnitCircleRootError:
            pass
        assert counts[mod_p] == proofs or not first
        certified += first
    assert counts["exactalg.poly_gcd"] == 0 and certified > 0
    rc = classify_roots(repeated)
    assert counts["exactalg.poly_gcd"] > 0
    yun = ref_squarefree_factors(repeated.shift(-rc.zero_multiplicity))
    assert [(a, k) for a, k, _disc in rc.discs] == [
        (a, k) for k, a in enumerate(yun, 1) if not a.is_constant()
    ]
    assert len(rc.discs) == 2


GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(capsys, case):
    # a case is model_command[_variant]; a variant lists its command line in "argv"
    model, command = case.split("_")[:2]
    path = GOLDEN / f"{model}.json"  # a model kept only for its golden output
    if not path.exists():
        path = ROOT / "models" / f"{model}.json"
    code = main([*GOLDEN_CASES[case].get("argv", [command]), str(path)])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{case}.stdout").read_text()
    assert captured.err == GOLDEN_CASES[case]["stderr"]
    assert code == GOLDEN_CASES[case]["exit"]


def test_cli_output_matches_digest():
    # python tests/digest.py rewrites the file; a change that alters some output must say why
    want, got = json.loads(DIGEST.read_text()), digest()
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not differ, f"{len(differ)} model/command output(s) differ from the digest: {differ}"


def _outcome(entry) -> str:
    if entry is None:
        return "absent"
    verdict, dim = entry
    return verdict if dim is None else f"{verdict}, dim {dim}"


def test_solve_outcomes_match_the_ledger():
    # python tests/digest.py rewrites the ledger; a change that moves an outcome must say why
    want, got = json.loads(OUTCOMES.read_text()), outcomes()
    moved = [f"{k}: {_outcome(want.get(k))} → {_outcome(got.get(k))}"
             for k in [*got, *(k for k in want if k not in got)] if want.get(k) != got.get(k)]
    assert not moved, f"{len(moved)} model(s) moved from the outcome ledger: {moved}"
