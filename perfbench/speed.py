"""Reference timings that measure how fast the machine runs right now.

On a shared host the speed of one core moves by up to a factor of two
within seconds, as neighbours come and go. The benchmark times a fixed
reference next to every operation and quotes the operation's time at
reference speed: wall seconds x the reference's nominal time / its measured
time around the operation. Two references, each doing the kind of work the
operations it is used for do:

- ref_loop, Fraction and int arithmetic in the worker's own process, just
  before and just after each model;
- spawn_ref, starting and ending a bare interpreter, just before and just
  after each cold CLI call and each set-up spawn: those are mostly process
  start, imports and page faults, which the loop does not follow.
"""

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Nominal times the normalized metrics are quoted in: about each reference's
# 5th-percentile time on a core of a shared 2-vCPU x86-64 cloud VM with
# CPython 3.11 (the loop's median there moved between 0.0055 and 0.0098 s,
# the spawn's median was 0.0156 s).
REF_S = 0.006
SPAWN_REF_S = 0.012


def ref_loop():
    """Wall seconds of one fixed pass of Fraction arithmetic."""
    t0 = perf_counter()
    a = Fraction(1, 3)
    acc = []
    for i in range(1, 1000):
        a = (a * Fraction(i, i + 1) + Fraction(1, i)) if i % 40 else Fraction(1, 3)
        acc.append(a.numerator % 7)
    return perf_counter() - t0


def spawn_ref():
    """Wall seconds of starting and ending `python -S -c pass`."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return perf_counter() - t0


def normalized(wall_s, ref_s, nominal_s):
    """wall_s quoted at reference speed, given the reference's time around it."""
    return wall_s * nominal_s / ref_s
