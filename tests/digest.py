"""Output digest and outcome ledger of the five test model sets: `python
tests/digest.py` rewrites tests/golden/digest.json and tests/golden/outcomes.json.

For every model of the corpus, the predetermined probe, the ladder-shaped,
planted and deep planted sets, `cli.main` runs analyze, smith, constraints,
solve, verify and probe (its default trials and seed), and solve with
`--kernel-point 0`, in process on the model's serialized file.  Each call is
recorded as the first 16 hex digits of the sha256 of its (exit code, stdout,
stderr), the model file's path written as "model.json", under the key
"<set>[<index>] <command line>".  test_pipeline compares a fresh digest with the
committed one and names every model and command that differs.

The ledger says what each model's solve answers, where the digest only pins
bytes: under the key "<set>[<index>]", the verdict and indeterminacy_dim, or the
class of the refusal's exception and null.  test_pipeline names every model whose
outcome moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGEST = HERE / "golden" / "digest.json"
OUTCOMES = HERE / "golden" / "outcomes.json"
# the command lines without the model path: every command but simulate with its defaults, and
# the solve of kernel basis vector 0 (an error on the models with an empty kernel)
RUNS = ("analyze", "smith", "constraints", "solve", "verify", "probe", "solve --kernel-point 0")


def model_sets() -> dict:
    """The five sets by name, each a list of models."""
    from conftest import (
        corpus_models, deep_planted_models, ladder_shaped_models, planted_models, probe_models,
    )

    return {"corpus": corpus_models(), "probe": probe_models(),
            "ladder": ladder_shaped_models(), "planted": planted_models(),
            "deep": deep_planted_models()}


def digest() -> dict:
    """{"<set>[<index>] <run>": sha256[:16] of (exit, stdout, stderr)} over the five sets."""
    from conftest import serialize_model
    from recausal.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "model.json")
        for name, models in model_sets().items():
            for i, m in enumerate(models):
                Path(path).write_text(serialize_model(m))
                for run in RUNS:
                    stdout, stderr = io.StringIO(), io.StringIO()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        code = main([*run.split(), path])
                    call = [code, stdout.getvalue(), stderr.getvalue()]
                    text = json.dumps(call).replace(path, "model.json")
                    out[f"{name}[{i}] {run}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def outcomes() -> dict:
    """{"<set>[<index>]": [verdict, indeterminacy_dim] or [refusal class, None]} of
    solve_causal over the five sets; the refusals are the errors the CLI reports."""
    from recausal.canon import (
        FactorizationError, RedundantEquationsError, UnitCircleRootError, UnsupportedModelError,
    )
    from recausal.solver import solve_causal

    out = {}
    for name, models in model_sets().items():
        for i, m in enumerate(models):
            try:
                sr = solve_causal(m)
                out[f"{name}[{i}]"] = [sr.classification, sr.indeterminacy_dim]
            except (FactorizationError, RedundantEquationsError, UnitCircleRootError,
                    UnsupportedModelError) as exc:
                out[f"{name}[{i}]"] = [type(exc).__name__, None]
    return out


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    DIGEST.write_text(json.dumps(digest(), indent=1) + "\n")
    ledger = outcomes()  # one model a line
    OUTCOMES.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                            for k, v in ledger.items()) + "\n}\n")
    print(f"wrote {DIGEST} and {OUTCOMES}")
