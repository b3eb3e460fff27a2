"""Fixed reference work that tells how fast the machine was while jobs ran.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds and minutes as other tenants' load comes and goes.  Two pieces
of reference work, which import nothing from projderiv and so do not change
when the program does, are timed next to the program's own work:

* reference_work() is a fixed in-process mix of the operations jobs are made
  of (Python bytecode, small numpy calls, JSON parsing, float formatting).
  The job loop times it after every few milliseconds of job time; each pass
  over the jobs is scaled by the mean reference time during that pass.
* REF_INTERPRETER is a fresh interpreter importing a fixed set of standard
  library modules.  It runs just before each timed CLI subprocess, and the
  subprocess is scaled by it.

A scaled timing is what the run would have measured on a machine where the
reference takes REF_LOOP_S (in-process) or REF_INTERPRETER_S (interpreter).
Both constants are round figures near what the references took on the
2-CPU virtual machine the benchmark was tuned on; they fix the scale only.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

REF_LOOP_S = 0.0004
REF_INTERPRETER_S = 0.17
REF_INTERPRETER = (
    "import argparse, asyncio, csv, decimal, email.message, http.client, json, logging,"
    " sqlite3, ssl, tarfile, unittest, xml.dom.minidom, zipfile"
)

_A = np.random.default_rng(12345).standard_normal(16)
_DOC = json.dumps({"x": [float(v) for v in np.random.default_rng(6789).standard_normal(64)]})


def reference_work() -> float:
    acc = 0.0
    a = _A
    for i in range(30):
        b = a * 0.5 + float(i)
        acc += float(np.linalg.norm(b)) + float(np.dot(a, b))
        acc += max(0.0, float(b[i % 16]))
    for _ in range(2):
        xs = json.loads(_DOC)["x"]
        acc += len(" ".join(repr(float(v)) for v in xs))
    return acc


def time_reference() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def typical(samples) -> float:
    """Mean of the middle 96% of reference times.

    The machine switches between a fast and a slow state, so reference times
    cluster around two values; the mean follows the share of slow time,
    which is what slows the jobs, while a median jumps from one cluster to
    the other.  The trim drops the odd sample stretched by an interrupt."""
    s = np.sort(np.asarray(samples, dtype=float))
    cut = len(s) // 50
    return float(s[cut : len(s) - cut].mean())
