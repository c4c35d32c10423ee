"""recausal benchmark: cold CLI, generic size ladder and planted exact solves.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli-cold,ladder,planted,all} \
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one client: the next operation starts
only after the previous one has completed and been checked. --trace 0
measures end-to-end metrics over a fixed number of whole cycles of the
workload's sizes and variants, about --seconds of operation time, so the
same seed always gives the same operations; times are quoted at reference
speed (speed.py). --trace 1 runs a fixed prefix of the same
operations once untraced and once with recausal's layers wrapped in spans,
and reports per-layer metrics plus the tracing overhead. --workload all runs
every workload both ways. The last stdout line is one JSON object {correct,
attempted, failed, metrics}; the line before it carries every end-to-end
metric under its own name, with its base.
See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from exact import substitution_residual
from gen import GENERATORS, LADDER, PLANTED, ladder_model, planted_model, to_json
from spans import aggregate, parse_importtime
from speed import REF_S, SPAWN_REF_S, normalized, spawn_ref

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("cli-cold", "ladder", "planted")

SETUP_SPAWNS = 6          # fresh interpreters per run, half before and half after
                          # the timed loop; setup_s is their median
CASE_TIMEOUT_S = 20.0     # per model, enforced by SIGALRM inside the worker
BACKSTOP_S = 30.0         # extra grace before the parent kills a silent worker
CLI_TIMEOUT_S = 60.0      # per cold CLI call
MAX_LAG = 50
CYCLE = {"ladder": 4 * len(LADDER), "planted": 4 * len(PLANTED)}  # every rung and variant once
REF_WINDOW = 2            # ops on each side whose reference timings set an op's speed
# A run does a fixed amount of work, set by --seconds: whole cycles, one per
# NOMINAL_CYCLE_S of --seconds (about a cycle's wall-clock op time on a shared
# 2-vCPU cloud VM). The same seed and --seconds always give the same
# operations, however fast the program or the machine is.
NOMINAL_CYCLE_S = {"cli-cold": 11.0, "ladder": 6.5, "planted": 6.0}
OP_CAP_FACTOR = 4.0       # a much slower program stops, at a whole cycle, past
                          # this many times --seconds of op time
TRACE_MODELS = {"ladder": CYCLE["ladder"], "planted": 2 * CYCLE["planted"]}
TRACE_CLI_CYCLES = 1
TRACE_PASS_CAP_S = 45.0   # a traced-run pass stops early past this much operation time
SIMS = "models/sims.json"
REDUNDANT = "models/redundant.json"
SIMS_COMMANDS = ("analyze", "smith", "constraints", "solve", "verify", "simulate", "probe")

PER_LAYER = [
    ("model.parse_model.s", "s"), ("model.build_pi.s", "s"), ("model.build_pi.calls", "count"),
    ("model.validate_semantics.self_s", "s"),
    ("exactalg.det_adjugate.s", "s"), ("exactalg.det_adjugate.calls", "count"),
    ("exactalg.rank_kernel.s", "s"), ("exactalg.solve_affine.s", "s"), ("exactalg.poly_gcd.s", "s"),
    ("canon.smith_form.self_s", "s"), ("canon.smith_form.calls", "count"),
    ("canon.smith_form.max_bits", "bits"), ("canon.classify_roots.s", "s"),
    ("canon.classify_roots.calls", "count"), ("canon.classify_roots.errors", "count"),
    ("constraints.build_selectors.self_s", "s"), ("constraints.build_plain_system.self_s", "s"),
    ("constraints.build_predetermined_system.self_s", "s"), ("constraints.check_rank_bounds.s", "s"),
    ("constraints.C.max_bits", "bits"),
    ("dimension.run_pipeline.s", "s"), ("dimension.run_pipeline.calls", "count"),
    ("dimension.dimension_report.self_s", "s"),
    ("solver.factor_stable_unstable.self_s", "s"), ("solver.factor_stable_unstable.errors", "count"),
    ("solver.solve_causal.self_s", "s"), ("solver.build_transfer.self_s", "s"),
    ("solver.transfer.max_bits", "bits"), ("solver.verify_solution.s", "s"), ("solver.simulate.s", "s"),
    ("cli.import.s", "s"), ("cli.import.sympy_s", "s"), ("cli.import.numpy_s", "s"), ("cli.main.s", "s"),
    ("trace.overhead_frac", "frac"),
]


class WorkerDied(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A perfbench/worker.py process; `setup_wall_s` is spawn to `import
    recausal` done, `setup_s` the same at reference speed."""

    def __init__(self, spans_path=None):
        cmd = [sys.executable, str(BENCH / "worker.py")]
        if spans_path:
            cmd += ["--spans", str(spans_path)]
        self._buf = b""
        ref_before = spawn_ref()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(), bufsize=0,
        )
        self._readline(120.0)
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_s = normalized(self.setup_wall_s, (ref_before + spawn_ref()) / 2, SPAWN_REF_S)

    def _readline(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("worker did not answer in time")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerDied(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def request(self, req):
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        return self._readline(req["timeout"] + BACKSTOP_S)

    def close(self):
        """Ask the worker to quit; returns its peak RSS in kB (None if it had died)."""
        rss = None
        try:
            self.proc.stdin.write(b'{"quit": 1}\n')
            self.proc.stdin.close()
            rss = self._readline(60.0)["maxrss_kb"]
        except (OSError, TimeoutError, WorkerDied):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return rss


def measure_setup(keep_last=False):
    """(reference-speed, wall) times of SETUP_SPAWNS / 2 fresh interpreters
    until `import recausal` completes.

    With keep_last, the last one is returned as the run's worker.
    """
    times, worker = [], None
    for k in range(SETUP_SPAWNS // 2):
        w = Worker()
        times.append((w.setup_s, w.setup_wall_s))
        if keep_last and k == SETUP_SPAWNS // 2 - 1:
            worker = w
        else:
            w.proc.kill()  # it has done nothing since its import
            w.close()
    return times, worker


# ---------------------------------------------------------------------------
# independent checks


def parse_fraction_doc(text):
    """The generator's model dict from a model JSON file (for fixed models)."""
    doc = json.loads(text)
    fr = lambda rows: [[Fraction(x) for x in row] for row in rows]
    return {
        "s": doc["s"], "K": doc["K"], "H": doc["H"], "q": doc["q"], "gamma": doc["gamma"],
        "A": {(a["k"], a["h"]): fr(a["matrix"]) for a in doc["A"]},
        "wold": [fr(w) for w in doc["wold"]],
    }


def check_transfer(mdl, num_doc, den_doc):
    """Own substitution to MAX_LAG and den(0) = 1 with roots outside the unit circle."""
    num = [[[Fraction(c) for c in e] for e in row] for row in num_doc]
    den = [Fraction(c) for c in den_doc]
    if not den or den[0] != 1:
        return "denominator is not normalized to den(0) = 1"
    if len(den) > 1:
        roots = np.roots([float(c) for c in reversed(den)])
        if np.any(np.abs(roots) <= 1.0):
            return "denominator has a root inside the closed unit disk"
    lag = substitution_residual(mdl, num, den, MAX_LAG)
    return None if lag is None else f"substitution residual is nonzero at lag {lag}"


def check_model(mdl, reply, planted):
    """Grade one worker reply. Returns (answered, failure, silent).

    failure is a reason string or None. silent marks a wrong output that the
    program's own verify_solution did not flag (or that it has no verifier for).
    """
    out = reply["outcome"]
    if out == "dnf":
        return False, f"DNF after {CASE_TIMEOUT_S:g} s", False
    if out == "refused":
        if planted:  # planted roots are rational and off the ring: no refusal applies
            return False, f"refused a planted model: {reply['exc']}: {reply['msg']}", True
        return False, None, False
    if out == "error":
        return False, f"unexpected {reply['exc']}: {reply['msg']}", False
    problems = []
    if not reply["validation_ok"]:
        problems.append("validate_semantics reports a problem with a valid model")
    if planted:
        want = mdl["planted"]
        if "facts_error" in reply:
            problems.append(f"smith_form/classify_roots failed: {reply['facts_error']}")
        elif reply["g"] != want["g"] or reply["n_unstable"] != want["n_unstable"]:
            problems.append(f"planted g={want['g']}, {want['n_unstable']} unstable; "
                            f"got g={reply['g']}, {reply['n_unstable']} unstable")
    if problems:
        return False, "; ".join(problems), True
    if out == "no_causal_solution":
        return True, None, False
    wrong = check_transfer(mdl, reply["num"], reply["den"])
    if wrong is None and reply["verify_ok"]:
        return True, None, False
    if wrong is None:
        return False, "verify_solution rejects a solution that passes substitution", False
    return False, wrong + ("" if reply["verify_ok"] else " (verify_solution agrees)"), bool(reply["verify_ok"])


# ---------------------------------------------------------------------------
# ladder / planted


def run_models(workload, seed, worker, count, cap_s, new_worker=Worker):
    """Closed loop over models 0 .. count - 1 (whole cycles: every rung and
    variant once per cycle); stops early, at the end of a cycle, past cap_s
    of op time.

    A worker that stays silent past the backstop is killed and replaced by
    new_worker(); its case is a DNF.
    """
    gen = GENERATORS[workload]
    planted = workload == "planted"
    cycle = CYCLE[workload]
    rows, op_total, rss = [], 0.0, []
    i = 0
    while i < count and (op_total < cap_s or i % cycle):
        mdl = gen(seed, i)
        text = to_json(mdl)
        req = {"id": i, "text": text, "timeout": CASE_TIMEOUT_S, "planted": planted}
        try:
            reply = worker.request(req)
        except (TimeoutError, WorkerDied):
            worker.proc.kill()
            rss.append(worker.close())
            reply = {"id": i, "outcome": "dnf"}
            worker = new_worker()
        if reply["outcome"] == "dnf":  # a DNF is charged the full timeout
            reply["op_s"], reply["ref_s"] = CASE_TIMEOUT_S, None
        answered, failure, silent = check_model(mdl, reply, planted)
        row = {"id": i, "props": mdl["props"], "outcome": reply["outcome"], "op_s": reply["op_s"],
               "ref_s": reply["ref_s"], "answered": answered, "failure": failure, "silent": silent}
        if reply["outcome"] in ("refused", "error"):
            row["exc"] = reply["exc"]
        if failure:
            row["input"] = text
        rows.append(row)
        op_total += reply["op_s"]
        i += 1
    rss.append(worker.close())
    add_norm_s(rows, REF_S)
    return rows, max((r for r in rss if r), default=0) / 1024.0


def add_norm_s(rows, nominal_s):
    """Each row's op time at reference speed (norm_s). The machine speed for
    op i is the median reference time (ref_s) over ops i - 2 .. i + 2, which
    follows changes of speed that last a few seconds while smoothing the
    jitter of single reference timings. A DNF (ref_s None) stays charged the
    full timeout."""
    refs = [r["ref_s"] for r in rows]
    for i, r in enumerate(rows):
        near = [x for x in refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1] if x is not None]
        if r["ref_s"] is None:
            r["norm_s"] = r["op_s"]
        else:
            r["norm_s"] = normalized(r["op_s"], statistics.median(near), nominal_s)


# ---------------------------------------------------------------------------
# cli-cold


def cli_cycle(seed, c, tmp):
    """Cycle c of cold CLI calls: all commands on sims, the exit-1 path, two small generated models."""
    calls = [{"args": [cmd, SIMS], "expect": "sims"} for cmd in SIMS_COMMANDS]
    calls.append({"args": ["analyze", REDUNDANT], "expect": "exit1"})
    for kind, mdl in (("ladder", ladder_model(seed, c * len(LADDER))),
                      ("planted", planted_model(seed, c * len(PLANTED)))):
        path = Path(tmp) / f"{kind}-{c}.json"
        path.write_text(to_json(mdl))
        for cmd in ("analyze", "solve"):
            calls.append({"args": [cmd, str(path)], "expect": "generated", "model": mdl,
                          "planted": kind == "planted"})
    return calls


def run_cli(call, traced_spans=None):
    """One cold CLI call; returns (wall seconds, exit code, stdout, stderr, import seconds).

    Import seconds (recausal, sympy, numpy) come from -X importtime on traced
    calls, whose importtime lines are removed from the returned stderr.
    """
    if traced_spans is None:
        cmd = [sys.executable, "-m", "recausal.cli"] + call["args"]
    else:
        cmd = [sys.executable, "-X", "importtime", str(BENCH / "cli_child.py"), str(traced_spans)]
        cmd += call["args"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                            env=child_env(), text=True)
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return CLI_TIMEOUT_S, None, "", "", None
    wall = time.perf_counter() - t0
    if traced_spans is None:
        return wall, proc.returncode, out, err, None
    rest = "".join(ln for ln in err.splitlines(True) if not ln.startswith("import time:"))
    return wall, proc.returncode, out, rest, parse_importtime(err)


@functools.cache
def sims_model():
    return parse_fraction_doc((ROOT / SIMS).read_text())


def exit1_refusal(call, err, worker):
    """Whether an exit 1 on a generated model is a refusal: the same model in
    the worker (untimed) must raise a refusal with the message the CLI printed."""
    if call["planted"]:
        return False  # planted roots are rational and off the ring: no refusal applies
    reply = worker.request({"id": "cli-exit1", "text": to_json(call["model"]),
                            "timeout": CASE_TIMEOUT_S, "planted": False})
    return reply["outcome"] == "refused" and err.startswith(f"error: {reply['msg']}")


def check_cli(call, code, out, err, worker=None):
    """Grade one CLI call. Returns (answered, failure, silent)."""
    cmd, path = call["args"]
    if code is None:
        return False, f"DNF after {CLI_TIMEOUT_S:g} s", False
    if code == 1 and err.startswith("error:"):
        if call["expect"] == "exit1":
            return True, None, False
        if call["expect"] == "generated" and not out and exit1_refusal(call, err, worker):
            return False, None, False
        # sims and planted models have known answers: refusing them is a wrong answer
        known = call["expect"] == "sims" or call.get("planted", False)
        return False, f"unexpected exit 1: {err.strip()[:200]}", known
    if code != 0:
        return False, f"exit code {code}: {err.strip()[-300:]}", False
    if call["expect"] == "exit1":
        return False, "exit 0 where exit 1 was expected", True
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return False, "stdout is not JSON", True
    if doc.get("command") != cmd:
        return False, f"stdout reports command {doc.get('command')!r}", True
    if call["expect"] == "sims":
        expected = {
            "analyze": lambda d: d["validation"]["ok"] and d["flavor"] == "predetermined",
            "smith": lambda d: d["g"] == [0, 1],
            "constraints": lambda d: d["flavor"] == "predetermined" and "C" in d,
            "solve": lambda d: d["classification"] == "determinate",
            "verify": lambda d: d["ok"] is True and d["classification"] == "determinate",
            "simulate": lambda d: d["T"] == 100000 and "exact_autocov" in d,
            "probe": lambda d: "base_rank" in d and "modal_rank" in d,
        }[cmd]
        if not expected(doc):
            return False, f"sims {cmd} output differs from the known result", True
        mdl = sims_model()
    else:
        mdl = call["model"]
        if cmd == "analyze" and not doc["validation"]["ok"]:
            return False, "analyze reports a problem with a valid model", True
    if cmd == "solve" and "transfer_numerator" in doc:
        wrong = check_transfer(mdl, doc["transfer_numerator"], doc["transfer_denominator"])
        if wrong:
            # is the wrong answer one the program flags itself? (untimed)
            _, vcode, vout, _, _ = run_cli({"args": ["verify", path]})
            flagged = vcode == 0 and json.loads(vout)["ok"] is False
            return False, wrong + (" (recausal verify agrees)" if flagged else ""), not flagged
    return True, None, False


def run_cli_loop(seed, tmp, cycles, cap_s, worker, traced_dir=None):
    """Closed loop of `cycles` whole cycles of cold CLI calls; stops early, at
    the end of a cycle, past cap_s of wall time. `worker` names the exception
    behind an exit 1."""
    rows, wall_total = [], 0.0
    c = 0
    while c < cycles and wall_total < cap_s:
        for call in cli_cycle(seed, c, tmp):
            spans = None if traced_dir is None else Path(traced_dir) / f"spans-{len(rows)}.json"
            ref_before = spawn_ref()
            wall, code, out, err, imp = run_cli(call, spans)
            ref_s = None if code is None else (ref_before + spawn_ref()) / 2
            answered, failure, silent = check_cli(call, code, out, err, worker)
            row = {"id": len(rows), "args": call["args"], "exit": code, "op_s": wall, "ref_s": ref_s,
                   "answered": answered, "failure": failure, "silent": silent}
            if imp is not None:
                row["importtime"] = imp
            if call["expect"] == "generated":
                row["props"] = call["model"]["props"]
            if failure and call["expect"] == "generated":
                row["input"] = to_json(call["model"])
            rows.append(row)
            wall_total += wall
        c += 1
    add_norm_s(rows, SPAWN_REF_S)
    return rows


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], 100, n
    return v[n - 11], int(100 * (n - 10) / n), n


def summarize(workload, rows, setup_times, rss_mb):
    """(report, metrics, failed).

    Times in `metrics` are at reference speed (speed.py); the report gives
    the same numbers under the workload's own names, with bases, next to the
    wall-clock figures.
    """
    n = len(rows)
    answered = sum(r["answered"] for r in rows)
    failed = sum(1 for r in rows if r["failure"])
    op, rate = ("cli", "calls") if workload == "cli-cold" else ("verdict", "models")
    metrics, report = {}, {}
    for k, suffix in ((0, ""), (1, "_wall")):
        setup_s = statistics.median(t[k] for t in setup_times)
        times = [r["op_s" if k else "norm_s"] for r in rows]
        p50, total = statistics.median(times), sum(times)
        t_val, t_pct, _ = tail(times)
        if not k:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_p50_s": {"value": p50, "unit": "s"},
                "op_tail_s": {"value": t_val, "unit": "s"},
                "ops_per_s": {"value": n / total, "unit": "1/s"},
            }
        report[f"setup{suffix}_s"] = {"value": setup_s, "unit": "s", "base": f"median of {len(setup_times)} spawns"}
        report[f"{op}_p50{suffix}_s"] = {"value": p50, "unit": "s", "n": n}
        report[f"{op}_tail{suffix}_s"] = {"value": t_val, "unit": "s", "percentile": t_pct, "n": n}
        report[f"{rate}{suffix}_per_s"] = {"value": n / total, "unit": "1/s", "base": f"{n} in {total:.2f} s"}
    report["answered_frac"] = {"value": answered / n, "unit": "frac", "base": f"{answered}/{n}"}
    report["fail_frac"] = {"value": failed / n, "unit": "frac", "base": f"{failed}/{n}"}
    report["peak_rss_mb"] = metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return report, metrics, failed


def layer_metrics(agg, importtime, overhead):
    """The PER_LAYER metrics from merged span aggregates and import figures."""
    def get(layer, field):
        return agg.get(layer, {}).get(field, 0)

    vals = {"cli.import.s": importtime[0], "cli.import.sympy_s": importtime[1],
            "cli.import.numpy_s": importtime[2], "trace.overhead_frac": overhead}
    out = {}
    for name, unit in PER_LAYER:
        if name not in vals:
            layer, field = name.rsplit(".", 1)
            if field == "max_bits":
                vals[name] = get(layer + ".bits", "max_bits")
            else:
                vals[name] = get(layer, field)
        out[name] = {"value": vals[name], "unit": unit}
    return out


def merge(aggs):
    out = {}
    for agg in aggs:
        for layer, row in agg.items():
            acc = out.setdefault(layer, {})
            for k, v in row.items():
                acc[k] = max(acc.get(k, 0), v) if k == "max_bits" else acc.get(k, 0) + v
    return out


def load_spans(path):
    """Spans a traced process wrote; none if it was killed before writing them."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return []


# ---------------------------------------------------------------------------
# runs


def write_rows(name, rows):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def untraced(workload, seed, seconds, tmp):
    # set-up is timed before and after the loop, so that its median spans the run
    before, worker = measure_setup(keep_last=True)
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    cap_s = OP_CAP_FACTOR * seconds
    if workload == "cli-cold":
        rows = run_cli_loop(seed, tmp, cycles, cap_s, worker)
        worker.close()
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        rows, rss_mb = run_models(workload, seed, worker, cycles * CYCLE[workload], cap_s)
    after, _ = measure_setup()
    write_rows(f"{workload}-seed{seed}.jsonl", rows)
    report, metrics, failed = summarize(workload, rows, before + after, rss_mb)
    silent = sum(r["silent"] for r in rows)
    return report, metrics, len(rows), failed, silent == 0, rows


def cli_probe(tmp):
    """One traced cold `simulate models/sims.json`: its row, span aggregate and import seconds."""
    spans = Path(tmp) / "probe-spans.json"
    call = {"args": ["simulate", SIMS], "expect": "sims"}
    wall, code, out, err, imp = run_cli(call, spans)
    answered, failure, silent = check_cli(call, code, out, err)
    row = {"id": "cli-probe", "args": call["args"], "exit": code, "op_s": wall,
           "answered": answered, "failure": failure, "silent": silent}
    return row, aggregate(load_spans(spans)), imp or (0.0, 0.0, 0.0)


def traced(workload, seed, tmp):
    """Fixed prefix run untraced, then traced, in fresh processes; per-layer metrics."""
    if workload == "cli-cold":
        worker = Worker()
        plain = run_cli_loop(seed, tmp, TRACE_CLI_CYCLES, TRACE_PASS_CAP_S, worker)
        tdir = Path(tmp) / "cli-spans"
        tdir.mkdir()
        rows = run_cli_loop(seed, tmp, TRACE_CLI_CYCLES, TRACE_PASS_CAP_S, worker, traced_dir=tdir)
        worker.close()
        for r in rows:
            r["layers"] = aggregate(load_spans(tdir / f"spans-{r['id']}.json"))
        agg = merge(r["layers"] for r in rows)
        imp = tuple(sum(r["importtime"][k] for r in rows if r.get("importtime")) for k in range(3))
    else:
        count = TRACE_MODELS[workload]
        plain, _ = run_models(workload, seed, Worker(), count, TRACE_PASS_CAP_S)
        spans_paths = []

        def traced_worker():
            spans_paths.append(Path(tmp) / f"spans-{len(spans_paths)}.json")
            return Worker(spans_paths[-1])

        rows, _ = run_models(workload, seed, traced_worker(), count, TRACE_PASS_CAP_S, traced_worker)
        spans = [load_spans(p) for p in spans_paths]
        agg = merge(aggregate(s) for s in spans)
        for r in rows:
            r["layers"] = merge(aggregate(s, tag=r["id"]) for s in spans)
        # no ladder or planted call goes through the CLI: the CLI layer and
        # simulate come from one traced cold `simulate models/sims.json` call
        probe, probe_agg, imp = cli_probe(tmp)
        for layer in ("cli.main", "solver.simulate"):
            agg[layer] = probe_agg.get(layer, {})
    n = min(len(rows), len(plain))
    overhead = sum(r["norm_s"] for r in rows[:n]) / sum(r["norm_s"] for r in plain[:n]) - 1.0
    if workload != "cli-cold":
        rows.append(probe)
    write_rows(f"{workload}-seed{seed}-trace.jsonl", rows)
    metrics = layer_metrics(agg, imp, overhead)
    failed = sum(1 for r in rows if r["failure"])
    silent = sum(r["silent"] for r in rows)
    return metrics, len(rows), failed, silent == 0, rows


def print_rows_summary(workload, rows):
    outcomes = {}
    for r in rows:
        key = r["outcome"] if "outcome" in r else f"exit {r['exit']}"
        if r.get("exc"):
            key += f":{r['exc']}"
        outcomes[key] = outcomes.get(key, 0) + 1
    print(f"[{workload}] outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    for r in rows:
        if r["failure"]:
            what = r.get("props") or r.get("args")
            print(f"[{workload}] FAILED op {r['id']} {what}: {r['failure']}"
                  + (" [not flagged by the program]" if r["silent"] else ""))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "recausal" / "__init__.py").is_file():
        print(f"error: no recausal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one core for the benchmark and every process it starts: the closed loop
    # never runs two of them at once, and the reference loop then measures the
    # core the operations ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, tmp):
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in workloads:
        for mode in modes:
            sub = Path(tmp) / f"{wl}-{mode}"
            sub.mkdir()
            if mode == 0:
                report, metrics, n, failed, correct, rows = untraced(wl, args.seed, args.seconds, sub)
                print_rows_summary(wl, rows)
                for name, m in report.items():
                    extra = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
                    print(f"[{wl}] {name} = {m['value']:.6g} {m['unit']}" + (f" ({extra})" if extra else ""))
                print(json.dumps({"workload": wl, "seed": args.seed, "report": report}))
            else:
                metrics, n, failed, correct, rows = traced(wl, args.seed, sub)
                print_rows_summary(wl + " traced", rows)
                for name, m in metrics.items():
                    print(f"[{wl} traced] {name} = {m['value']:.6g} {m['unit']}")
            final["correct"] = final["correct"] and correct
            final["attempted"] += n
            final["failed"] += failed
            if len(workloads) * len(modes) == 1:
                final["metrics"] = metrics
            else:
                final["metrics"].update({f"{wl}.{k}": v for k, v in metrics.items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
