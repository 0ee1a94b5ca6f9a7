"""Sweep the implication grid and chart where choice fails to transfer.

RC_m says every infinite set admits a selector on its m-subsets.  The
diagonal is trivially provable and the single off-diagonal success is
RC_2 => RC_4.  Everything else is blocked by a decomposition certificate,
and this script shows the certificate picked for each small pair.
"""

from ramseychoice import classify
from ramseychoice.scan import run_scan


def grid(limit):
    cells = {}
    for m in range(2, limit + 1):
        for n in range(2, limit + 1):
            c = classify(m, n)
            cells[m, n] = "ok" if c.verdict.value == "provable" else str(c.certificate)
    w = max(len(v) for v in cells.values()) + 2
    print("  " + "".join(f"{n:>{w}}" for n in range(2, limit + 1)))
    for m in range(2, limit + 1):
        print(f"{m:>2}" + "".join(f"{cells[m, n]:>{w}}" for n in range(2, limit + 1)))


def main():
    print("verdict grid, m down the side, n across the top")
    print("(ok = provable, otherwise the blocking decomposition)")
    print()
    grid(10)
    print()

    report, _ = run_scan(20, 20)
    print(f"2..20 box: {report.provable} provable of {report.total} pairs")
    print("recipes used:")
    for name, count in report.recipe_counts().items():
        if count:
            print(f"  {name}: {count}")
    print()

    for m, n in [(2, 4), (4, 2), (3, 9), (6, 9), (2, 16)]:
        c = classify(m, n)
        tag = c.reason.value
        print(f"RC_{m} => RC_{n}: {c.verdict.value} ({tag}"
              + (f", certificate {c.certificate}" if c.certificate else "")
              + ")")


if __name__ == "__main__":
    main()
