"""Output checks behind ``failed``; they run after the timed loop.

* boundary: the printed death point d brackets the zero of negativity
  (evaluated through the public ``evolve_two_stage`` and ``negativity``);
  uninterrupted state1 items are also compared with the root of the
  closed-form ``separability_indicator``.
* evolve-3x3: every row against an independent numpy reference (einsum
  Kraus application, ``numpy.linalg.eigvalsh``, singular values).
* scan-pool: every row's verdict against its two death columns and the
  summary intervals.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import csv
import json
import math
from io import StringIO

import numpy as np
from esdlab import dynamics, measures, states
from esdlab.channels import default_model
from esdlab.luo import LocalUnitary

from workloads import is_oracle_item, options

ZERO = 1e-12  # the CLI's default --zero-threshold
TOL = 5e-4  # the CLI's default --tol
CAP = 1.0 - 1e-6  # the solver's p' cap
# values are printed with 9 significant digits
PRINTED_REL = 1e-8


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(StringIO(text)))


def _close(printed: float, ref: float) -> bool:
    return abs(printed - ref) <= PRINTED_REL * abs(ref) + ZERO


# ------------------------------------------------------------------ boundary


def _negativity(sched, pp: float) -> float:
    return measures.negativity(dynamics.evolve_two_stage(sched, pp))


def check_boundary(argv: list[str], out: str) -> tuple[list[str], dict]:
    opts = options(argv)
    rows = _rows(out)
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"], {}
    row = rows[0]
    family = states.StateFamily(states.FamilyId(opts["--family"]), float(opts["--x"]))
    model = default_model(family.dims)
    sched = dynamics.StageSchedule(
        family, model, LocalUnitary(opts["--op-a"], opts["--op-b"]), float(opts["--pn"])
    )
    problems = []
    for key in ("family", "op_a", "op_b"):
        if row[key] != opts["--" + key.replace("_", "-")]:
            problems.append(f"{key} echoed as {row[key]!r}")
    facts: dict = {"no_death": row["p_prime_death"] == ""}
    if facts["no_death"]:
        if not _negativity(sched, CAP) > ZERO:
            problems.append("no death printed, but negativity vanishes at the cap")
    else:
        d = float(row["p_prime_death"])
        if d == 0.0:
            if not _negativity(sched, 0.0) <= ZERO:
                problems.append("death at 0 printed, but negativity(0) > 0")
        elif not _negativity(sched, max(d - TOL, 0.0)) > ZERO:
            problems.append(f"negativity already zero at d - tol (d = {d})")
        if not _negativity(sched, min(d + TOL, CAP)) <= ZERO:
            problems.append(f"negativity still positive at d + tol (d = {d})")
    indicator = getattr(states, "separability_indicator", None)
    if is_oracle_item(argv) and indicator is not None:
        root = _oracle_root(lambda p: indicator(family.x, p, model))
        if root is None or facts["no_death"]:
            if (root is None) != facts["no_death"]:
                problems.append(f"oracle death {root}, printed {row['p_prime_death']!r}")
        else:
            err = abs(float(row["p_prime_death"]) - root)
            facts["death_err"] = err
            # bisection half-width plus 9-digit rounding
            if err > TOL / 2 + 1e-9:
                problems.append(f"death {row['p_prime_death']} vs oracle {root:.12f}")
    return problems, facts


def _oracle_root(f) -> float | None:
    """Smallest p with a non-negative indicator f(p), or None before the cap."""
    if f(CAP) < -ZERO:
        return None
    lo, hi = 0.0, CAP
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) < -ZERO:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ evolve


_FLIPS_3 = {
    "I": [0, 1, 2],
    "F01": [1, 0, 2],
    "F02": [2, 1, 0],
    "F102": [1, 2, 0],
    "F201": [2, 0, 1],
}


def _flip(name: str) -> np.ndarray:
    """The flip as a 0/1 matrix: row r has its 1 in column _FLIPS_3[name][r]."""
    u = np.zeros((3, 3))
    for row, col in enumerate(_FLIPS_3[name]):
        u[row, col] = 1.0
    return u


def _twoqutrit_state(x: float) -> np.ndarray:
    w = (1.0 - 2.0 * x) / 3.0
    rho = np.diag([w, x / 3, x / 3, x / 3, w, x / 3, x / 3, x / 3, w]).astype(complex)
    rho[0, 8] = rho[8, 0] = w
    return rho.reshape(3, 3, 3, 3)


def _qutrit_kraus(p1: float, p2: float) -> np.ndarray:
    k = np.zeros((3, 3, 3))
    k[0] = np.diag([1.0, math.sqrt(1.0 - p1), math.sqrt(1.0 - p2)])
    k[1, 0, 1] = math.sqrt(p1)
    k[2, 0, 2] = math.sqrt(p2)
    return k


def damp(r: np.ndarray, p: float, ratio_a: float, ratio_b: float) -> np.ndarray:
    k = _qutrit_kraus(ratio_a * p, ratio_b * p)
    r = np.einsum("iae,efgh,icg->afch", k, r, k.conj())
    return np.einsum("jbf,afch,jdh->abcd", k, r, k.conj())


def flipped_reference(x, pn, op_a, op_b, ratio_a, ratio_b) -> np.ndarray:
    """Two-qutrit state after damp(pn) and the flip, as (3, 3, 3, 3)."""
    r = damp(_twoqutrit_state(x), pn, ratio_a, ratio_b)
    ua, ub = _flip(op_a), _flip(op_b)
    return np.einsum("ae,bf,efgh,cg,dh->abcd", ua, ub, r, ua, ub, optimize=True)


def reference_measures(r: np.ndarray) -> tuple[float, float]:
    """(negativity, realigned negativity) of a (3, 3, 3, 3) state."""
    w = np.linalg.eigvalsh(r.transpose(2, 1, 0, 3).reshape(9, 9))
    neg = float(-w[w < 0.0].sum())
    s = np.linalg.svd(r.transpose(0, 2, 1, 3).reshape(9, 9), compute_uv=False)
    return neg, max(0.0, float(s.sum()) - 1.0)


def check_evolve(argv: list[str], out: str) -> tuple[list[str], dict]:
    doc = json.loads(out)
    cfg = doc["config"]
    opts = options(argv)
    problems = []
    if cfg["x"] != float(opts["--x"]) or cfg["pn"] != float(opts["--pn"]):
        problems.append("config echo differs from the input")
    n_expected = len(np.arange(0.0, CAP, cfg["pprime_step"])) + 1
    if len(doc["rows"]) != n_expected:
        problems.append(f"{len(doc['rows'])} rows, expected {n_expected}")
    debug = "--debug-matrices" in argv
    ratios = cfg["ratio_a"], cfg["ratio_b"]
    flipped = flipped_reference(cfg["x"], cfg["pn"], cfg["op_a"], cfg["op_b"], *ratios)
    for row in doc["rows"]:
        r = damp(flipped, row["p_prime"], *ratios)
        neg, realigned = reference_measures(r)
        if not _close(row["negativity"], neg):
            problems.append(f"p'={row['p_prime']}: negativity {row['negativity']} vs {neg:.12g}")
        if not _close(row["realigned_negativity"], realigned):
            problems.append(
                f"p'={row['p_prime']}: realigned {row['realigned_negativity']} vs {realigned:.12g}"
            )
        if debug:
            m = np.array(row["matrix"], dtype=float)
            m = m[..., 0] + 1j * m[..., 1]
            if not np.allclose(m, r.reshape(9, 9), rtol=0.0, atol=ZERO):
                problems.append(f"p'={row['p_prime']}: debug matrix differs")
        elif "matrix" in row:
            problems.append("matrix present without --debug-matrices")
    return problems, {}


# ------------------------------------------------------------------ scan


def check_scan(argv: list[str], out: str) -> tuple[list[str], dict]:
    rows = _rows(out)
    if not rows or rows[-1]["p_n"] != "summary":
        return ["missing summary row"], {}
    summary = rows.pop()
    avoid_end = float(summary["baseline_death"])
    delay_end = float(summary["manipulated_death"])
    problems = []
    if not 0.0 <= avoid_end <= delay_end:
        problems.append(f"summary intervals out of order: {avoid_end}, {delay_end}")
    slack = 1e-8  # 9-digit rounding of the printed deaths
    for row in rows:
        pn, verdict = float(row["p_n"]), row["verdict"]
        b = float(row["baseline_death"]) if row["baseline_death"] else None
        m = float(row["manipulated_death"]) if row["manipulated_death"] else None
        if b is None:
            problems.append(f"p_n={pn}: no baseline death below the baseline death point")
            continue
        by_columns = {
            "Avoid": m is None,
            "Delay": m is not None and m > b + TOL - slack,
            "Hasten": m is not None and m < b - TOL + slack,
            "Unchanged": m is not None and abs(m - b) <= TOL + slack,
        }.get(verdict, False)
        if not by_columns:
            problems.append(f"p_n={pn}: {verdict} contradicts deaths {b}, {m}")
        by_interval = {
            "Avoid": pn <= avoid_end + TOL,
            "Delay": avoid_end - TOL <= pn <= delay_end + TOL,
            "Hasten": pn >= delay_end - TOL,
            "Unchanged": pn >= avoid_end - TOL,
        }.get(verdict, False)
        if not by_interval:
            problems.append(f"p_n={pn}: {verdict} outside intervals [{avoid_end}, {delay_end}]")
        if pn < avoid_end - TOL and verdict != "Avoid":
            problems.append(f"p_n={pn}: {verdict} inside the Avoid interval")
    return problems, {"scan_rows": len(rows)}


# the check of each workload: (argv, stdout) -> (problems, facts)
CHECKS = {"boundary": check_boundary, "evolve-3x3": check_evolve, "scan-pool": check_scan}
