"""Grid scans: classify every pair of a box and report the verdicts.

run_scan classifies 2..max_m x 2..max_n, optionally against the oracle's
column table; ScanReport holds the rows and round-trips them through JSON and CSV.
"""

from __future__ import annotations

import csv
import io

from .certificates import Recipe
from .decomposition import (
    COLUMN_BOUND,
    Reason,
    Verdict,
    classify_detailed,
    oracle_disagreement,
    provable_reason,
)
from .errors import BoundExceeded
from .records import Record

# The cost of one pair of a scan in units of one column step: a pair costs
# about SCAN_PAIR_COST + n units, as the widest sum table it folds and the
# longest parts list it writes grow with n (on a 2-vCPU VM about 2.5 us per
# pair once n's caches are warm, 5 us when this was set, and at most a few
# ns per unit of n).
SCAN_PAIR_COST = 1000

# Largest estimated work run_scan admits, about a second on that VM: the
# largest square box it admits is 2..433, and 2..300 takes 43% of it.
SCAN_WORK_BOUND = 2**28


class ScanRow(Record):
    __slots__ = ("m", "n", "verdict", "reason", "recipe", "parts")

    def __new__(
        cls, m: int, n: int, verdict: str, reason: str, recipe: str | None = None,
        parts: tuple[int, ...] | None = None,
    ) -> "ScanRow":
        self = object.__new__(_OpenScanRow)
        self.m = m
        self.n = n
        self.verdict = verdict
        self.reason = reason
        self.recipe = recipe
        self.parts = parts
        self.__class__ = cls
        return self


_OpenScanRow = ScanRow._open  # as decomposition's _OpenClassification


# The values a row read back may hold in each enum field; a provable pair has no recipe.
_KNOWN = (("verdict", tuple(Verdict)), ("reason", tuple(Reason)), ("recipe", (*Recipe, None)))
_CERTIFICATE = Reason.CERTIFICATE


def _known(row: ScanRow, kind: str, source) -> ScanRow:
    """row, or ValueError naming the source it was read from when a field holds no value of its enum."""
    for field, values in _KNOWN:
        value = getattr(row, field)
        if value not in values:
            raise ValueError(f"{kind} {source} has an unknown {field} {value!r}")
    return row


class ScanReport(Record):
    """Grid classification result with JSON and CSV round trips.

    oracle_checked counts the rows the oracle checked, or is None for a scan
    without it; it describes the run, not the grid, so equality ignores it.
    The report is mutable, so it has no hash.
    """

    __slots__ = ("max_m", "max_n", "rows", "oracle_checked")
    _compared = ("max_m", "max_n", "rows")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, max_m: int, max_n: int, rows: list[ScanRow], oracle_checked: int | None = None) -> None:
        self.max_m = max_m
        self.max_n = max_n
        self.rows = rows
        self.oracle_checked = oracle_checked

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def provable(self) -> int:
        provable = Verdict.PROVABLE.value
        return sum(1 for r in self.rows if r.verdict == provable)

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
        """Read a to_json_obj object back; a pair whose verdict, reason or
        recipe is no value of its enum raises ValueError."""
        rows = []
        for p in obj["pairs"]:
            parts = tuple(p["parts"]) if "parts" in p else None
            row = ScanRow(p["m"], p["n"], p["verdict"], p["reason"], p.get("recipe"), parts)
            rows.append(_known(row, "pair", p))
        return cls(obj["max_m"], obj["max_n"], rows)

    def to_csv(self) -> str:
        """A header and one line per row, each ending in a newline.

        m and n are integers, which csv.writer never quotes, so each line is
        "m,n," plus the writer's encoding of (verdict, recipe, parts); that
        tail is encoded once per distinct triple, and the rows of a column
        share a few.  The writer ends its lines in "\r\n", so it quotes a
        field holding either character and from_csv reads it back; the tail
        is its line without that ending.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        tails = {}
        lines = ["m,n,verdict,recipe,parts\n"]
        for r in self.rows:
            key = (r.verdict, r.recipe, r.parts)
            tail = tails.get(key)
            if tail is None:
                buf.seek(0)
                buf.truncate()
                writer.writerow([r.verdict, r.recipe or "", "+".join(map(str, r.parts or ()))])
                tail = tails[key] = buf.getvalue()[:-2]
            lines.append(f"{r.m},{r.n},{tail}\n")
        return "".join(lines)

    @classmethod
    def from_csv(cls, text: str) -> "ScanReport":
        """Read a to_csv table back; max_m and max_n are the largest m and n in it.

        The reader splits lines itself, so a quoted field keeps its newlines.
        A row without exactly five fields, or whose verdict or recipe is no
        value of its enum, raises ValueError.
        """
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header != ["m", "n", "verdict", "recipe", "parts"]:
            raise ValueError(f"unexpected CSV header {header}")
        rows = []
        parsed = {}  # each distinct parts field, parsed once: the rows of a column share a few
        for raw in reader:
            if len(raw) != 5:
                raise ValueError(f"CSV row {raw} has {len(raw)} fields, not 5")
            m, n = int(raw[0]), int(raw[1])
            reason = provable_reason(m, n) or _CERTIFICATE
            parts = parsed.get(raw[4])
            if parts is None and raw[4]:
                parts = parsed[raw[4]] = tuple(map(int, raw[4].split("+")))
            rows.append(_known(ScanRow(m, n, raw[2], reason.value, raw[3] or None, parts), "CSV row", raw))
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


def scan_work(max_m: int, max_n: int) -> int:
    """Estimated work of a scan: its pairs times the cost of the widest one.

    With oracle=True a scan also builds the oracle's columns up to
    min(max_n, COLUMN_BOUND) once per process, at most about 0.5 s, which this
    estimate leaves out.
    """
    return (max_m - 1) * (max_n - 1) * (SCAN_PAIR_COST + max_n)


def run_scan(max_m: int, max_n: int, *, oracle: bool = False):
    """Classify the grid 2..max_m x 2..max_n.

    Returns (report, disagreements); with oracle=True every pair with
    n <= COLUMN_BOUND is also checked against the oracle's column table, and
    the report counts those pairs.  A box whose scan_work exceeds
    SCAN_WORK_BOUND raises BoundExceeded before any pair is classified.
    """
    if max_m < 2 or max_n < 2:
        raise ValueError("scan needs max_m >= 2 and max_n >= 2")
    if scan_work(max_m, max_n) > SCAN_WORK_BOUND:
        raise BoundExceeded(
            f"a scan of 2..{max_m} x 2..{max_n} takes more than {SCAN_WORK_BOUND} steps"
        )
    rows = []
    disagreements = []
    for m in range(2, max_m + 1):
        for n in range(2, max_n + 1):
            cls_, trace = classify_detailed(m, n)
            finding = oracle and oracle_disagreement(m, n, trace is not None)
            if finding:
                disagreements.append((m, n, finding))
            recipe = trace.recipe.value if trace is not None else None
            parts = trace.decomposition.parts if trace is not None else None
            rows.append(ScanRow(m, n, cls_.verdict.value, cls_.reason.value, recipe, parts))
    checked = sum(row.n <= COLUMN_BOUND for row in rows) if oracle else None
    return ScanReport(max_m, max_n, rows, checked), disagreements
