"""In-process benchmark worker: one model at a time through recausal.

Protocol: after `import recausal` the worker writes {"ready": 1}. It then
reads one JSON request per line on stdin ({"id", "text", "timeout",
"planted"} or {"quit": 1}) and answers each with one JSON line. Requests
are answered in order, so the caller runs a closed loop. Each answer carries
the operation's wall time (op_s) and the mean time of the reference loop
run just before and just after it (ref_s).

Usage: python worker.py [--spans PATH]   (with --spans, layers are traced)
"""

import json
import os
import resource
import signal
import sys
from time import perf_counter

from recausal import canon, dimension, exactalg, model, solver
from speed import ref_loop

REFUSALS = {"FactorizationError", "UnsupportedModelError", "UnitCircleRootError"}
MAX_LAG = 50


class CaseTimeout(BaseException):
    """Raised by SIGALRM when a case runs past its timeout."""


def _on_alarm(_signum, _frame):
    raise CaseTimeout()


def _strs(p):
    return [str(c) for c in p.coeffs]


def run_case(text):
    """Model JSON text -> checked verdict: parse, analyze, solve, verify."""
    m = model.parse_model(text)
    validation = model.validate_semantics(m)
    dimension.dimension_report(m)
    sr = solver.solve_causal(m)
    ver = solver.verify_solution(m, sr, max_lag=MAX_LAG) if sr.transfer_num is not None else None
    return m, validation, sr, ver


def planted_facts(m):
    """g from smith_form and the unstable-root count from classify_roots."""
    pp = model.build_pi(m)
    sf = canon.smith_form(pp.pi)
    det, _ = exactalg.det_adjugate(pp.pi)
    rc = canon.classify_roots(det, m.xi)
    return list(sf.g), len(rc.unstable_roots)


def handle(req, recorder):
    row = {"id": req["id"]}
    if recorder is not None:
        recorder.tag = req["id"]
    ref_before = ref_loop()
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    t0 = perf_counter()
    try:
        m, validation, sr, ver = run_case(req["text"])
    except CaseTimeout:
        row.update(outcome="dnf")
        return row
    except Exception as exc:  # every exception is reported back as the case's outcome
        row.update(
            outcome="refused" if type(exc).__name__ in REFUSALS else "error",
            exc=type(exc).__name__, msg=str(exc)[:300],
        )
        return row
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        row["op_s"] = perf_counter() - t0
        row["ref_s"] = (ref_before + ref_loop()) / 2
    row.update(outcome=sr.classification, validation_ok=validation["ok"])
    if ver is not None:
        row.update(
            verify_ok=ver["ok"],
            num=[[_strs(e) for e in r] for r in sr.transfer_num.entries],
            den=_strs(sr.transfer_den),
        )
    if req.get("planted"):
        if recorder is not None:
            recorder.paused = True
        try:
            row["g"], row["n_unstable"] = planted_facts(m)
        except Exception as exc:  # reported as a wrong answer by the caller
            row["facts_error"] = f"{type(exc).__name__}: {str(exc)[:300]}"
        finally:
            if recorder is not None:
                recorder.paused = False
    return row


def main():
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    proto.write('{"ready": 1}\n')
    os.dup2(2, 1)  # anything the library prints goes to stderr, not the protocol
    sys.stdout = sys.stderr
    spans_path = sys.argv[2] if sys.argv[1:2] == ["--spans"] else None
    recorder = None
    if spans_path:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            break
        proto.write(json.dumps(handle(req, recorder)) + "\n")
    if recorder is not None:
        recorder.dump(spans_path)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proto.write(json.dumps({"maxrss_kb": rss_kb}) + "\n")


if __name__ == "__main__":
    main()
