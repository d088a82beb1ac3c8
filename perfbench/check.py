"""Correctness check of one CLI run's CSV outputs.

Every row must satisfy the physical invariants (mu_k >= 1, nu_k >= 0,
0 <= nu_1 <= 1, stderr and MSE >= 0, all finite) and match its recorded
reference within the reference's tolerance:

    |x - ref| <= rtol * |ref| + atol_frac * max|ref over the column|

References are recorded by ``record_references.py``.  Rows of a known defect
carry no reference value (``rtol`` null): they are checked for invariants
only and listed by name, so the defect stays visible instead of becoming
the expected answer.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: columns that identify a row rather than hold a result
VALUE_COLUMNS = {"value", "stderr", "mse"}
#: slack for the invariants, far above rounding and far below any real defect
INVARIANT_SLACK = 1e-12


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    max_rel_err: float = 0.0
    defect_rows: list = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        for name in other.defect_rows:
            if name not in self.defect_rows:
                self.defect_rows.append(name)


def reference_path(size: str, workload: str) -> Path:
    return REFERENCE_DIR / size / f"{workload}.json"


def load_reference(size: str, workload: str) -> dict:
    with open(reference_path(size, workload)) as fh:
        return json.load(fh)


def row_key(row: dict) -> str:
    return ",".join(f"{k}={row[k]}" for k in sorted(row) if k not in VALUE_COLUMNS)


def row_name(file_name: str, row: dict) -> str:
    if "quantity" in row:
        return (f"{file_name}[N={row['N']},t={row['t']},gamma={row['gamma']},"
                f"k={row['k']},{row['quantity']}]")
    return f"{file_name}[N_P={row['N_P']}]"


def invariant_problems(row: dict) -> list[str]:
    out = []
    for col in VALUE_COLUMNS & set(row):
        x = float(row[col])
        if not math.isfinite(x):
            out.append(f"{col}={row[col]} is not finite")
        elif x < 0.0:
            out.append(f"{col}={x!r} < 0")
    if row.get("quantity") == "mu" and float(row["value"]) < 1.0 - INVARIANT_SLACK:
        out.append(f"mu_{row['k']}={row['value']} < 1")
    if (row.get("quantity") == "nu" and row["k"] == "1"
            and float(row["value"]) > 1.0 + INVARIANT_SLACK):
        out.append(f"nu_1={row['value']} > 1")
    return out


def read_outputs(out_dir: Path) -> dict[str, list[dict]]:
    out = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        with open(path, newline="") as fh:
            out[path.name] = list(csv.DictReader(fh))
    return out


def expected_rows(entry: dict) -> int:
    return sum(len(rows) for rows in entry["files"].values())


def check_outputs(entry: dict, outputs: dict[str, list[dict]]) -> CheckResult:
    """Compare one run's CSV rows with a reference entry."""
    res = CheckResult()
    for file_name, ref_rows in entry["files"].items():
        got = {row_key(r): r for r in outputs.get(file_name, [])}
        compare = entry["compare"]
        scale = {col: max((abs(float(r["row"][col])) for r in ref_rows
                           if r["rtol"] is not None), default=0.0)
                 for col in compare}
        for ref in ref_rows:
            res.attempted += 1
            name = row_name(file_name, ref["row"])
            row = got.pop(row_key(ref["row"]), None)
            if row is None:
                res.failed += 1
                res.problems.append(f"{name}: missing")
                continue
            bad = invariant_problems(row)
            if ref["rtol"] is None:
                res.defect_rows.append(name)
            else:
                for col in compare:
                    x, want = float(row[col]), float(ref["row"][col])
                    dev = abs(x - want)
                    if col == "value" and want != 0.0:
                        res.max_rel_err = max(res.max_rel_err, dev / abs(want))
                    tol = ref["rtol"] * abs(want) + entry["atol_frac"] * scale[col]
                    if not dev <= tol:
                        bad.append(f"{col}={x!r} differs from reference {want!r} "
                                   f"by {dev:.3g} > {tol:.3g}")
            if bad:
                res.failed += 1
                res.problems.append(f"{name}: " + "; ".join(bad))
        for key in got:
            res.attempted += 1
            res.failed += 1
            res.problems.append(f"{file_name}: unexpected row {key}")
    for file_name in set(outputs) - set(entry["files"]):
        res.attempted += len(outputs[file_name])
        res.failed += len(outputs[file_name])
        res.problems.append(f"{file_name}: unexpected output file")
    return res


def all_failed(entry: dict, reason: str) -> CheckResult:
    """A run that did not finish fails every row it should have written."""
    n = expected_rows(entry)
    return CheckResult(attempted=n, failed=n, problems=[reason])
