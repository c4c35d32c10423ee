"""Output digest of the five test model sets: `python tests/digest.py` rewrites
tests/golden/digest.json.

For every model of the corpus, the predetermined probe, the ladder-shaped,
planted and deep planted sets, `cli.main` runs analyze, smith, constraints,
solve, verify and probe (its default trials and seed), and solve with
`--kernel-point 0`, in process on the model's serialized file.  Each call is
recorded as the first 16 hex digits of the sha256 of its (exit code, stdout,
stderr), the model file's path written as "model.json", under the key
"<set>[<index>] <command line>".  test_pipeline compares a fresh digest with the
committed one and names every model and command that differs.
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


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    DIGEST.write_text(json.dumps(digest(), indent=1) + "\n")
    print(f"wrote {DIGEST}")
