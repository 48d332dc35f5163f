#!/usr/bin/env python3
"""Recompute every headline threshold and print a survey report.

Covers the uninterrupted death points, the decay/death parameter
boundaries, the avoid/delay/hasten interval ends for each exercised flip
pair, and the full classification table.  Runs in about a minute.
"""

import argparse
import time

from esdlab.channels import default_model
from esdlab.dynamics import (
    TABLE1_OPS,
    StageSchedule,
    critical_x,
    death_point,
    regime_boundaries,
    table1_cell,
)
from esdlab.luo import LocalUnitary
from esdlab.states import FamilyId, StateFamily

FAMILIES = {
    "state1": StateFamily(FamilyId.STATE1, 0.25),
    "state2": StateFamily(FamilyId.STATE2, 0.5),
    "twoqutrit": StateFamily(FamilyId.TWO_QUTRIT, 0.25),
}

REGIME_PAIRS = [
    ("state1", "X", "F01"),
    ("state1", "I", "F01"),
    ("state1", "X", "F102"),
    ("state1", "I", "F102"),
    ("state2", "X", "F01"),
    ("state2", "X", "I"),
    ("state2", "I", "F01"),
    ("state2", "I", "F02"),
    ("state2", "I", "F201"),
    ("twoqutrit", "F01", "I"),
    ("twoqutrit", "F01", "F01"),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-table", action="store_true", help="omit the 18-cell table")
    args = parser.parse_args()
    t0 = time.time()

    print("== uninterrupted death points ==")
    for name, family in FAMILIES.items():
        model = default_model(family.dims)
        d = death_point(StageSchedule(family, model))
        print(f"  {name:10s} x={family.x:<5} death at p = {d:.5f}")

    print("== decay/death parameter boundaries ==")
    for fid in (FamilyId.STATE1, FamilyId.TWO_QUTRIT):
        xc = critical_x(fid, default_model(fid.dims))
        print(f"  {fid.value:10s} boundary x = {xc:.5f}")
    print(f"  {'state2':10s} dies on its entire range "
          f"({critical_x(FamilyId.STATE2, default_model((2, 3)))})")

    print("== regime boundaries (avoid end / delay end / hasten?) ==")
    for name, op_a, op_b in REGIME_PAIRS:
        family = FAMILIES[name]
        rb = regime_boundaries(family, default_model(family.dims), LocalUnitary(op_a, op_b))
        print(
            f"  {name:10s} ({op_a:>3s},{op_b:>4s})  "
            f"avoid<={rb.avoid_end:.4f}  delay<{rb.delay_end:.4f}  "
            f"hasten={'yes' if rb.has_hasten else 'no'}"
        )

    if not args.skip_table:
        print("== classification table (flip pair: state1 / state2) ==")
        for op_a, op_b in TABLE1_OPS:
            c1 = table1_cell("state1", 0.25, op_a, op_b)
            c2 = table1_cell("state2", 0.5, op_a, op_b)
            print(f"  {op_a}*{op_b:<5s}  {c1:15s} / {c2}")

    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
