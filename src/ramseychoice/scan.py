"""Grid scans: classify every pair of a box and report the verdicts.

run_scan classifies 2..max_m x 2..max_n, optionally against the exhaustive
oracle; ScanReport holds the rows and round-trips them through JSON and CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .certificates import Recipe
from .decomposition import (
    EXHAUSTIVE_BOUND,
    Reason,
    Verdict,
    classify_detailed,
    oracle_checks,
    provable_reason,
)
from .errors import OracleDisagreement


@dataclass(frozen=True)
class ScanRow:
    m: int
    n: int
    verdict: str
    reason: str
    recipe: str | None = None
    parts: tuple[int, ...] | None = None


@dataclass
class ScanReport:
    """Grid classification result with JSON and CSV round trips.

    oracle_checked counts the rows the oracle checked, or is None for a scan
    without it; it describes the run, not the grid, so equality ignores it.
    """

    max_m: int
    max_n: int
    rows: list[ScanRow]
    oracle_checked: int | None = field(default=None, compare=False)

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def provable(self) -> int:
        return sum(1 for r in self.rows if r.verdict == Verdict.PROVABLE.value)

    @property
    def not_provable(self) -> int:
        return self.total - self.provable

    def recipe_counts(self) -> dict[str, int]:
        counts = {r.value: 0 for r in Recipe}
        for row in self.rows:
            if row.recipe is not None:
                counts[row.recipe] += 1
        return counts

    def to_json_obj(self) -> dict:
        pairs = []
        for r in self.rows:
            obj = {"m": r.m, "n": r.n, "verdict": r.verdict, "reason": r.reason}
            if r.recipe is not None:
                obj["recipe"] = r.recipe
                obj["parts"] = list(r.parts)
            pairs.append(obj)
        return {"max_m": self.max_m, "max_n": self.max_n, "pairs": pairs}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ScanReport":
        rows = []
        for p in obj["pairs"]:
            rows.append(
                ScanRow(
                    p["m"],
                    p["n"],
                    p["verdict"],
                    p["reason"],
                    p.get("recipe"),
                    tuple(p["parts"]) if "parts" in p else None,
                )
            )
        return cls(obj["max_m"], obj["max_n"], rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["m", "n", "verdict", "recipe", "parts"])
        for r in self.rows:
            writer.writerow(
                [
                    r.m,
                    r.n,
                    r.verdict,
                    r.recipe or "",
                    "+".join(map(str, r.parts)) if r.parts else "",
                ]
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ScanReport":
        """Read a to_csv table back; max_m and max_n are the largest m and n in it."""
        reader = csv.reader(text.splitlines())
        header = next(reader, None)
        if header != ["m", "n", "verdict", "recipe", "parts"]:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        for raw in reader:
            m, n = int(raw[0]), int(raw[1])
            reason = provable_reason(m, n) or Reason.CERTIFICATE
            recipe = raw[3] or None
            parts = tuple(int(x) for x in raw[4].split("+")) if raw[4] else None
            rows.append(ScanRow(m, n, raw[2], reason.value, recipe, parts))
        if not rows:
            raise ValueError("the CSV holds no rows, so the grid size is unknown")
        return cls(max(r.m for r in rows), max(r.n for r in rows), rows)

    def summary_lines(self) -> list[str]:
        lines = [
            f"scan m=2..{self.max_m} n=2..{self.max_n}",
            f"pairs: {self.total}",
            f"provable: {self.provable}",
            f"not provable: {self.not_provable}",
            "certificates by recipe:",
        ]
        for name, count in self.recipe_counts().items():
            lines.append(f"  {name}: {count}")
        return lines


def run_scan(max_m: int, max_n: int, *, bound: int = EXHAUSTIVE_BOUND, oracle: bool = False):
    """Classify the grid 2..max_m x 2..max_n.

    Returns (report, disagreements); with oracle=True every pair within the
    bound is also checked against the direct decomposition search, and the
    report counts those pairs.
    """
    if max_m < 2 or max_n < 2:
        raise ValueError("scan needs max_m >= 2 and max_n >= 2")
    rows = []
    disagreements = []
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            try:
                cls_, trace = classify_detailed(m, n, oracle=oracle, bound=bound)
            except OracleDisagreement as exc:
                disagreements.append((m, n, str(exc)))
                cls_, trace = exc.result
            recipe = trace.recipe.value if trace is not None else None
            parts = trace.decomposition.parts if trace is not None else None
            rows.append(
                ScanRow(m, n, cls_.verdict.value, cls_.reason.value, recipe, parts)
            )
    checked = sum(oracle_checks(r.n, bound) for r in rows) if oracle else None
    return ScanReport(max_m, max_n, rows, checked), disagreements
