import argparse
import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ramseychoice.cli import build_parser, main
from ramseychoice.decomposition import COLUMN_BOUND, provable_by_theorem
from ramseychoice.numtheory import GOLDBACH_SEARCH_BOUND
from ramseychoice.scan import ScanReport, ScanRow, run_scan
from ramseychoice.selector_models import run_fraisse_stages


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_lines(capsys):
    code, out, _ = run(capsys, "classify", "3", "7")
    assert code == 0
    assert out == "RC_3 => RC_7: not provable (blocked by 7)\n"
    code, out, _ = run(capsys, "classify", "4", "4")
    assert (code, out) == (0, "RC_4 => RC_4: provable (diagonal)\n")
    code, out, _ = run(capsys, "classify", "2", "4")
    assert (code, out) == (0, "RC_2 => RC_4: provable (pair-to-four construction)\n")
    code, out, _ = run(capsys, "classify", "6", "9")
    assert (code, out) == (0, "RC_6 => RC_9: not provable (blocked by 7+2)\n")


def test_classify_json_shape(capsys):
    code, out, _ = run(capsys, "classify", "3", "7", "--json")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["m", "n", "verdict", "reason", "certificate",
                         "achievable_sums"]
    assert obj["certificate"] == {"parts": [7]}
    assert obj["achievable_sums"] == [0, 7]


JSON_COMMANDS = [
    ("classify", "3", "7", "--json"),
    ("classify", "4", "4", "--json"),
    ("certificate", "6", "9", "--json"),
    ("scan", "5", "5", "--oracle", "--json"),
    ("model", "2", "1", "3", "--json"),
    ("catalog", "2", "1", "--json"),
    ("fraisse", "2", "2", "--check", "2", "--json"),
    ("verify", "rc24", "--json"),
    ("verify", "claim", "--qmax", "5", "--json"),
    ("verify", "goldbach", "--max", "21", "--json"),
]


@pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_json_output_is_json_dumps_indent_2(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    # --timing leaves stdout one document and writes one elapsed: line on stderr
    _, timed, err = run(capsys, *argv, "--timing")
    assert timed == out
    assert err.startswith("elapsed: ") and err.count("\n") == 1


def test_certificate_output(capsys):
    code, out, _ = run(capsys, "certificate", "6", "9")
    assert code == 0
    assert out == (
        "RC_6 => RC_9: blocked by 7+2 (OddCase)\n"
        "  - goldbach triple (3, 3, 3)\n"
        "  - all-equal case: split 9 = 7 + 2\n"
    )


def test_certificate_provable_pair_fails(capsys):
    code, _, err = run(capsys, "certificate", "2", "4")
    assert code == 1
    assert "provable" in err


def test_a_nonpositive_pair_is_a_usage_error_for_every_subcommand(capsys):
    # certificate and classify agree: exit 2 with the same message; a
    # provable pair and n = 1 stay negative answers (exit 1)
    for command in ("certificate", "classify"):
        assert run(capsys, command, "0", "5") == (2, "", "error: need positive m and n, got (0, 5)\n")
        assert run(capsys, command, "-1", "3") == (2, "", "error: need positive m and n, got (-1, 3)\n")
    for m, n in ((2, 4), (7, 7)):
        assert run(capsys, "certificate", str(m), str(n)) == (
            1, "", f"error: ({m}, {n}) is provable; no blocking certificate exists\n"
        )
    assert run(capsys, "certificate", "3", "1") == (
        1, "", "error: no decomposition of 1 exists, so (3, 1) has no certificate\n"
    )
    assert run(capsys, "scan", "1", "5") == (2, "", "error: scan needs max_m >= 2 and max_n >= 2\n")


def test_an_empty_goldbach_search_is_a_negative_answer(capsys, monkeypatch, cold_caches):
    import ramseychoice.numtheory as numtheory

    # with 5 and 7 taken for composites, 11 has no prime triple
    is_prime = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda x: x not in (5, 7) and is_prime(x))
    assert run(capsys, "classify", "3", "11") == (
        1, "", "error: no prime triple sums to 11; ternary Goldbach violated in range\n"
    )


def test_model_output(capsys):
    code, out, _ = run(capsys, "model", "2", "1", "3")
    assert code == 0
    assert out == (
        "m=2 domain=4\n"
        "P={0,1} sel=0\n"
        "P={0,2} sel=0\n"
        "P={0,3} sel=0\n"
        "P={1,2} sel=1\n"
        "P={1,3} sel=3\n"
        "P={2,3} sel=2\n"
        "S={0} cycles=[(1,2,3)]\n"
        "equivariance: ok\n"
        "fixed-point-free region: ok (3 atoms)\n"
    )


def test_model_bytes_are_pinned(capsys):
    for argv, digest in [
        # 20,475 subsets, over four 7-cycles
        (("model", "4", "0", "7", "7", "7", "7"), "c8e8eb0a9e9aae7981bbee604a7c8bcf251fab3e3b59dc475680507d14756289"),
        (("model", "3", "2", "5", "4", "--json"), "433da914c6d5e66888174a108e4f080d8fd64563ecfdc198cd423815e636fd9e"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_model_not_blocking_exits_one(capsys):
    code, _, err = run(capsys, "model", "2", "0", "4")
    assert code == 1
    assert "admits m = 2" in err


def test_model_over_the_bound_exits_three(capsys):
    # 31+29 blocks 10, so this would enumerate all C(60, 10) ten-subsets
    code, out, err = run(capsys, "model", "10", "0", "31", "29")
    assert (code, out) == (3, "")
    assert err == "error: C(60, 10) m-subsets hold more than 1000000 atoms\n"
    # a million subsets, but each of 999,999 atoms
    code, _, err = run(capsys, "model", "999999", "0", "1000000")
    assert code == 3
    assert err == "error: C(1000000, 999999) m-subsets hold more than 1000000 atoms\n"
    # refused without computing the 600,000-digit C(2000000, 1000000)
    code, _, err = run(capsys, "model", "1000000", "0", "2000000")
    assert code == 3


def test_model_invalid_part_exits_two(capsys):
    code, _, err = run(capsys, "model", "2", "0", "1")
    assert code == 2
    assert err


def test_scan_summary_frozen(capsys):
    code, out, _ = run(capsys, "scan", "6", "6")
    assert code == 0
    assert out == (
        "scan m=2..6 n=2..6\n"
        "pairs: 25\n"
        "provable: 6\n"
        "not provable: 19\n"
        "certificates by recipe:\n"
        "  GreaterCase: 10\n"
        "  PrimeDivisorCase: 9\n"
        "  PrimePowerCase: 0\n"
        "  OddCase: 0\n"
        "  FermatShiftCase: 0\n"
        "  EvenGapCase: 0\n"
        "  EvenDenseCase: 0\n"
        "  ExhaustiveFallback: 0\n"
    )


def test_scan_output_is_reproducible(capsys):
    _, first, _ = run(capsys, "scan", "8", "8")
    _, second, _ = run(capsys, "scan", "8", "8")
    assert first == second


def test_scan_csv_frozen(capsys):
    code, out, _ = run(capsys, "scan", "4", "4", "--csv")
    assert code == 0
    assert out == (
        "m,n,verdict,recipe,parts\n"
        "2,2,provable,,\n"
        "2,3,not_provable,PrimeDivisorCase,3\n"
        "2,4,provable,,\n"
        "3,2,not_provable,GreaterCase,2\n"
        "3,3,provable,,\n"
        "3,4,not_provable,PrimeDivisorCase,2+2\n"
        "4,2,not_provable,GreaterCase,2\n"
        "4,3,not_provable,GreaterCase,3\n"
        "4,4,provable,,\n"
    )


def test_scan_300_csv_bytes_are_pinned(capsys):
    # the 2..300 table (6.1 MB) is admitted by the cost check, byte for byte
    code, out, err = run(capsys, "scan", "300", "300", "--csv")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "161f383694dcce576602e1a085f4ea5e3559a3a8e1a5f462070125cfca8c4c79"
    )


def test_scan_over_the_work_bound_exits_three_before_any_pair(capsys, monkeypatch):
    import ramseychoice.scan as sm

    def classify_detailed(m, n, **kw):
        raise AssertionError(f"({m}, {n}) was classified")

    monkeypatch.setattr(sm, "classify_detailed", classify_detailed)
    code, out, err = run(capsys, "scan", "100000", "100000")
    assert (code, out) == (3, "")
    assert err == "error: a scan of 2..100000 x 2..100000 takes more than 268435456 steps\n"
    assert sm.scan_work(300, 300) <= sm.SCAN_WORK_BOUND < sm.scan_work(434, 434)


def test_scan_oracle_agreement_line(capsys):
    code, out, _ = run(capsys, "scan", "8", "8", "--oracle")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 49/49")


def test_scan_oracle_counts_only_pairs_within_the_bound(capsys, monkeypatch):
    import ramseychoice.decomposition as dm

    # pairs with n > COLUMN_BOUND skip the oracle: 2 values of m times n = 2..300;
    # the stand-in oracle builds no column
    asked = []
    monkeypatch.setattr(
        dm, "oracle_blocks", lambda m, n: asked.append(n) or not provable_by_theorem(m, n)
    )
    max_n = str(COLUMN_BOUND + 1)
    code, out, _ = run(capsys, "scan", "3", max_n, "--oracle")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 598/598")
    assert max(asked) == COLUMN_BOUND
    code, out, _ = run(capsys, "scan", "3", max_n, "--oracle", "--json")
    assert code == 0
    assert json.loads(out)["oracle"] == {"checked": 598, "agree": 598}
    assert out.endswith('  "oracle": {\n    "checked": 598,\n    "agree": 598\n  }\n}\n')
    # the report carries the count; a scan without the oracle has none
    assert run_scan(3, COLUMN_BOUND + 1, oracle=True)[0].oracle_checked == 598
    assert run_scan(3, 3)[0].oracle_checked is None


def test_oracle_reaches_the_exhaustive_bound(capsys):
    code, out, _ = run(capsys, "scan", "64", "64", "--oracle")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 3969/3969")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cc985655354cea8d6756e59bd37eb00c8a497304486276911df003269b389144"
    )
    code, out, _ = run(capsys, "classify", "64", "64", "--oracle")
    assert (code, out) == (0, "RC_64 => RC_64: provable (diagonal)\n")


def _oracle_finds_nothing(monkeypatch):
    import ramseychoice.decomposition as dm

    monkeypatch.setattr(dm, "oracle_blocks", lambda m, n: False)


def test_scan_records_oracle_disagreements(monkeypatch):
    import ramseychoice.certificates as cm

    clean, _ = run_scan(3, 3)
    _oracle_finds_nothing(monkeypatch)
    calls = []
    build = cm.build_certificate

    def counted(m, n, **kw):
        calls.append((m, n))
        return build(m, n, **kw)

    monkeypatch.setattr(cm, "build_certificate", counted)
    report, disagreements = run_scan(3, 3, oracle=True)
    # every row is still emitted, exactly as without the oracle
    assert report == clean
    assert disagreements == [
        (m, n, f"recipes produced a certificate for ({m}, {n}) but the oracle's column {n} admits m = {m}")
        for m, n in [(2, 3), (3, 2)]
    ]
    # the oracle's finding needs no second classification: each pair's recipes run once
    assert calls == [(2, 3), (3, 2)]


def test_scan_oracle_disagreement_exits_one(capsys, monkeypatch):
    _oracle_finds_nothing(monkeypatch)
    code, out, err = run(capsys, "scan", "3", "3", "--oracle")
    assert code == 1
    assert out.rstrip().endswith("oracle agreement: 2/4")
    assert err.splitlines() == [
        f"oracle disagreement at ({m},{n}): recipes produced a certificate for ({m}, {n}) "
        f"but the oracle's column {n} admits m = {m}"
        for m, n in [(2, 3), (3, 2)]
    ]


def test_options_of_the_removed_fallback_are_usage_errors(capsys):
    # dispatch has no exhaustive fallback, so nothing is left for these to control;
    # the oracle's reach is COLUMN_BOUND, the staged construction's work
    # STAGE_WORK_BOUND and the triple search's GOLDBACH_SEARCH_BOUND, which no option sets
    for argv, command in (
        (["scan", "12", "12", "--constructive-only"], "scan"),
        (["certificate", "6", "9", "--bound", "3"], "certificate"),
        (["classify", "3", "7", "--bound", "10"], "classify"),
        (["scan", "12", "12", "--oracle", "--bound", "10"], "scan"),
        (["fraisse", "2", "3", "--max-atoms", "5"], "fraisse"),
        (["fraisse", "2", "3", "--max-domain", "20"], "fraisse"),
        (["verify", "goldbach", "--max", "11", "--bound", "7"], "verify goldbach"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        # the usage shown is the subcommand's, so it lists what the subcommand accepts
        assert err.startswith(f"usage: ramseychoice {command} [-h]"), argv
        assert f"\nramseychoice {command}: error: " in err, argv


def test_scan_json_round_trip():
    report, disagreements = run_scan(9, 9)
    assert disagreements == []
    back = ScanReport.from_json_obj(json.loads(json.dumps(report.to_json_obj())))
    assert back == report


# Fields the CSV writer must quote or double, and the empty string it must not.
AWKWARD = ("", "a,b", 'say "x"', "two\nlines", '",\n"')


def test_scan_csv_is_the_csv_writers_bytes():
    triples = [(v, r, p) for v in AWKWARD + ("not_provable",) for r in AWKWARD + (None, "OddCase")
               for p in (None, (2,), (7, 3, 3))]
    # every triple twice, so the second meets the tail the first encoded
    rows = [ScanRow(m, n, v, "certificate", r, p)
            for m, (v, r, p) in enumerate(triples * 2, start=2) for n in (2, 11)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "n", "verdict", "recipe", "parts"])
    for r in rows:
        writer.writerow([r.m, r.n, r.verdict, r.recipe or "", "+".join(map(str, r.parts or ()))])
    report = ScanReport(max(r.m for r in rows), 11, rows)
    assert report.to_csv() == buf.getvalue()
    # the rows of a known verdict and recipe read back; an empty recipe is
    # written as None is, so only the rows without one round-trip
    kept = [r for r in rows if r.recipe != "" and r.m != r.n]
    known = [r for r in kept if r.verdict == "not_provable" and r.recipe in (None, "OddCase")]
    text = ScanReport(max(r.m for r in known), 11, known).to_csv()
    assert ScanReport.from_csv(text) == ScanReport(max(r.m for r in known), 11, known)
    # every other row is refused, named by the fields the reader parsed: each
    # quoted field comes back whole, newlines inside it included
    for r in kept:
        if r not in known:
            field = "verdict" if r.verdict != "not_provable" else "recipe"
            assert_csv_row_refused(r, field)


def assert_csv_row_refused(row, field):
    """from_csv refuses the table of row alone for its field, naming the five fields written."""
    written = [str(row.m), str(row.n), row.verdict, row.recipe or "", "+".join(map(str, row.parts or ()))]
    message = f"CSV row {written} has an unknown {field} {getattr(row, field)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScanReport.from_csv(ScanReport(row.m, row.n, [row]).to_csv())


def test_scan_csv_quotes_a_carriage_return_and_reads_it_back():
    rows = [ScanRow(2, 3, "a\rb", "certificate", "c\r\nd", (3,)),
            ScanRow(3, 5, "e\r", "certificate", "f", (5,))]
    text = ScanReport(3, 5, rows).to_csv()
    assert text == 'm,n,verdict,recipe,parts\n2,3,"a\rb","c\r\nd",3\n3,5,"e\r",f,5\n'
    # neither verdict is a Verdict value, so each row is refused, named by the
    # five fields the reader parsed around the quoted carriage returns
    with pytest.raises(ValueError, match=re.escape(r"CSV row ['2', '3', 'a\rb', 'c\r\nd', '3'] has")):
        ScanReport.from_csv(text)
    for r in rows:
        assert_csv_row_refused(r, "verdict")


def test_scan_csv_round_trip():
    report, _ = run_scan(9, 9)
    back = ScanReport.from_csv(report.to_csv())
    assert back == report
    # rows with an equal parts field share the one tuple it was parsed into
    parts = {}
    assert all(parts.setdefault(r.parts, r.parts) is r.parts for r in back.rows)
    with pytest.raises(ValueError, match="^invalid literal for int"):
        ScanReport.from_csv("m,n,verdict,recipe,parts\n2,3,not_provable,PrimeDivisorCase,3+x\n")
    # the grid size comes from the rows, so a non-square grid survives too
    report, _ = run_scan(3, 6)
    assert ScanReport.from_csv(report.to_csv()) == report
    with pytest.raises(ValueError):
        ScanReport.from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        ScanReport.from_csv("m,n,verdict,recipe,parts\n")
    with pytest.raises(ValueError):
        ScanReport.from_csv("")
    with pytest.raises(ValueError, match=r"CSV row \['1', '2'\] has 2 fields"):
        ScanReport.from_csv("m,n,verdict,recipe,parts\n1,2\n")


def test_scan_readers_refuse_a_value_outside_its_enum():
    pair = {"m": 2, "n": 3, "verdict": "not_provable", "reason": "certificate", "recipe": "OddCase", "parts": [3]}
    for field, value in (("verdict", "banana"), ("reason", "y"), ("recipe", "Nope"), ("recipe", "")):
        bad = dict(pair, **{field: value})
        message = f"pair {bad} has an unknown {field} {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScanReport.from_json_obj({"max_m": 2, "max_n": 3, "pairs": [bad]})
    # a missing recipe is a provable pair's, so it is read as None
    del pair["recipe"]
    assert ScanReport.from_json_obj({"max_m": 2, "max_n": 3, "pairs": [pair]}).rows[0].recipe is None
    header = "m,n,verdict,recipe,parts\n"
    for line, field, value in (("2,3,banana,OddCase,3", "verdict", "banana"),
                               ("2,3,not_provable,Nope,3", "recipe", "Nope")):
        message = f"CSV row {line.split(',')} has an unknown {field} {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScanReport.from_csv(f"{header}2,2,provable,,\n{line}\n")


def test_scan_row_counts():
    report, _ = run_scan(50, 50)
    assert report.total == 49 * 49
    assert report.provable == 50
    assert report.not_provable == 49 * 49 - 50
    counts = report.recipe_counts()
    assert counts["ExhaustiveFallback"] == 0
    assert sum(counts.values()) == report.not_provable


def test_catalog_output(capsys):
    code, out, _ = run(capsys, "catalog", "2", "3")
    assert code == 0
    assert out == (
        "catalog m=2 k=3: 2 classes\n"
        "class 0: {0,1}->0 {0,2}->0 {1,2}->1\n"
        "class 1: {0,1}->0 {0,2}->2 {1,2}->1\n"
    )
    code, out, _ = run(capsys, "catalog", "2", "5", "--json")
    obj = json.loads(out)
    assert obj["classes"] == 12
    assert len(obj["tables"]) == 12


def test_catalog_bytes_are_pinned(capsys):
    assert run(capsys, "catalog", "1", "8") == (0, (
        "catalog m=1 k=8: 1 classes\n"
        "class 0: {0}->0 {1}->1 {2}->2 {3}->3 {4}->4 {5}->5 {6}->6 {7}->7\n"
    ), "")
    assert run(capsys, "catalog", "8", "8") == (0, (
        "catalog m=8 k=8: 1 classes\n"
        "class 0: {0,1,2,3,4,5,6,7}->0\n"
    ), "")
    for argv, digest in [
        (("catalog", "3", "5"), "2322ebdd5f18edfa085bf7fd7de0217882b801805d77e3df8d12d362ec966d43"),
        (("catalog", "3", "5", "--json"), "731ce832cd40436857e354b51f7adcc18dd98d8f257090a1227ef828de252887"),
    ]:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_catalog_guard_exits_three(capsys, monkeypatch):
    import ramseychoice.selector_models as sm

    code, _, err = run(capsys, "catalog", "2", "9")
    assert code == 3
    assert err

    def no_listing(*args):
        raise AssertionError("the catalog listed its subsets")

    # the guards run before any subset is listed: k^2 / 2 of them would exhaust memory
    monkeypatch.setattr(sm, "combinations", no_listing)
    assert run(capsys, "catalog", "2", "100000") == (
        3, "", "error: 100000 atoms exceed the catalog guard of 20\n"
    )
    # and before math.comb, which on these would build a 10^8-bit integer
    monkeypatch.setattr(sm.math, "comb", no_listing)
    assert run(capsys, "catalog", "50000000", "100000000") == (
        3, "", "error: 100000000 atoms exceed the catalog guard of 20\n"
    )


def test_fraisse_output(capsys):
    code, out, _ = run(capsys, "fraisse", "2", "2", "--check", "2")
    assert code == 0
    assert out == (
        "stage 0: 0 atoms\n"
        "stage 1: 1 atoms\n"
        "stage 2: 4 atoms\n"
        "one-point extensions up to k=2: complete\n"
    )


def test_fraisse_negative_ground_limit_is_a_usage_error(capsys):
    assert run(capsys, "fraisse", "2", "2", "--ground-limit", "-1") == (
        2, "", "error: need ground_limit >= 0, got -1\n"
    )


def test_fraisse_incomplete_exits_one(capsys):
    code, out, _ = run(capsys, "fraisse", "2", "1", "--check", "2")
    assert code == 1
    assert "missing" in out


def test_fraisse_cap_exits_three(capsys):
    # the one cap left is the work bound: stage 4 would walk the subsets of up
    # to 30 of 265 atoms, 2^30 or more, so they are refused without summing
    code, out, err = run(capsys, "fraisse", "1", "4", "--ground-limit", "30")
    assert (code, out) == (3, "")
    assert err == "error: bases of up to 30 of 265 atoms take the stages over the stage work bound 2000000\n"


@pytest.mark.parametrize("argv, answered, message", [
    ("6 3", 4, "C(49, 6) m-subsets and 49 atoms"),
    ("7 3", 4, "C(49, 7) m-subsets and 49 atoms"),
    ("8 3", 4, "C(49, 8) m-subsets and 49 atoms"),
    ("2 4", 49, "C(228292, 2) m-subsets and 228292 atoms"),
    ("3 4", 49, "C(891556, 3) m-subsets and 891556 atoms"),
    # no m-subset at all: the atoms alone exceed the bound
    ("100000000 4 --ground-limit 3", 145, "C(12006436, 100000000) m-subsets and 12006436 atoms"),
    ("3 600 --ground-limit 0", 0, "at least 600 bases, C(601, 2) atoms and C(601, 4) m-subsets"),
    ("2 100000 --ground-limit 0", 0,
     "at least 100000 bases, C(100001, 2) atoms and C(100001, 3) m-subsets"),
])
def test_fraisse_over_the_work_bound_exits_three_before_the_stage_writes(capsys, monkeypatch, argv, answered, message):
    # answered: the atoms of the last stage within the bound; the refused
    # stage must not list the m-subsets of its larger domain to complete them
    import ramseychoice.selector_models as sm

    def no_completion(atoms, r):
        atoms = tuple(atoms)
        assert len(atoms) <= answered, "the refused stage listed its own m-subsets"
        return combinations(atoms, r)

    monkeypatch.setattr(sm, "combinations", no_completion)
    code, out, err = run(capsys, "fraisse", *argv.split())
    assert (code, out) == (3, "")
    assert err == f"error: {message} take the stages over the stage work bound 2000000\n"


def test_fraisse_check_over_the_bound_exits_three(capsys, monkeypatch):
    import ramseychoice.cli as cli
    import ramseychoice.selector_models as sm

    def stages_then_no_listing(*args, **kwargs):
        chain = run_fraisse_stages(*args, **kwargs)
        monkeypatch.setattr(sm, "_grounds", None)  # the check must refuse before it lists a base
        return chain

    # the 231,525 bases of up to 4 of 49 atoms and at least m^C(s, m - 1)
    # extensions per base of s atoms, one word each, plus m words per m-subset
    for m, message in [
        (2, "231525 bases demanding at least 3542210 extensions and 1176 m-subsets"),
        (3, "231525 bases demanding at least 154958629 extensions and 18424 m-subsets"),
    ]:
        monkeypatch.setattr(cli, "run_fraisse_stages", stages_then_no_listing)
        code, out, err = run(capsys, "fraisse", str(m), "3", "--check", "5")
        assert (code, out) == (3, "")
        assert err == f"error: {message} on 49 atoms exceed the stage work bound 2000000\n"
        monkeypatch.undo()


def run_limited(*argv):
    """The CLI in a subprocess under a 3 GiB address-space limit, so that a
    run out of memory fails the test and leaves the test process alone."""
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
            "from ramseychoice.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    "classify 18446744073709551616 36893488147419103232",
    "classify 5 36893488147419103232",
    "certificate 5 36893488147419103232",
    "classify 4 36893488147419103234",
    "classify 3 9223372036854775809",
])
def test_pairs_past_the_primality_bound_exit_three_with_one_error_line(argv):
    # every recipe but the greater case tests primes of n's size, so m < n with
    # n > 2^63 is refused before any recipe runs, the same way for every such pair
    code, out, err = run_limited(*argv.split())
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, count", [
    ("classify 4 1000000000000000000", 2 * 10**17),
    ("certificate 4 1000000000000000000", 2 * 10**17),
    ("classify 4 1000000000000000000 --json", 2 * 10**17),
    ("classify 3 9223372036854775808", 2**62),
])
def test_certificates_too_long_to_list_exit_three_with_one_error_line(argv, count):
    # each is decided at once as a run of `count` copies, which is refused before it is listed
    assert run_limited(*argv.split()) == (3, "", f"error: {count} parts exceed the listing bound 10000000\n")


def test_a_huge_m_over_a_small_n_still_answers():
    # the greater case tests no prime, so m > n answers at any size
    assert run_limited("classify", "36893488147419103232", "5") == (
        0, "RC_36893488147419103232 => RC_5: not provable (blocked by 5)\n", "")


def test_importing_the_package_and_the_cli_loads_neither_logging_nor_argparse():
    # each answer runs in a fresh process, which pays for every module the import loads;
    # only build_parser needs argparse, nothing needs logging, and the records need
    # no dataclasses (nor the inspect, ast, dis and tokenize it pulls in)
    code = ("import sys; before = set(sys.modules); import ramseychoice, ramseychoice.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert {"ramseychoice", "ramseychoice.cli"} <= added
    assert not added & {"logging", "argparse", "dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_fraisse_check_of_a_wide_stage_exits_three_under_three_gib():
    # stage 4 of m = 1 holds 449,380 atoms: its masks of as many bits, one per
    # base and per demanded extension, take 7,022 words each
    assert run_limited("fraisse", "1", "4", "--check", "2") == (3, "", (
        "error: 449380 bases demanding at least 449380 extensions and 449380 m-subsets "
        "on 449380 atoms exceed the stage work bound 2000000\n"
    ))
    # k = 1 leaves no base, so no mask is built and the check answers
    code, out, err = run_limited("fraisse", "1", "4", "--check", "1")
    assert (code, err) == (0, "")
    assert out.endswith("stage 4: 449380 atoms\none-point extensions up to k=1: complete\n")


@pytest.mark.parametrize("small, huge", [
    ("fraisse 20 2", "fraisse 2000000000 2"),
    ("catalog 20 5", "catalog 2000000000 5"),
    ("model 30 0 3", "model 3000000000 0 3"),
])
def test_huge_arities_answer_as_small_ones(capsys, small, huge):
    # combinations(pool, m) allocates m indices first; an arity above every pool lists nothing
    code, want, _ = run(capsys, *small.split())
    assert code == 0
    m, big = small.split()[1], huge.split()[1]
    assert run_limited(*huge.split()) == (0, want.replace(f"m={m} ", f"m={big} "), "")


def test_fraisse_check_over_the_extension_guard_exits_three(capsys):
    # m = 20 leaves every injection an embedding: the check reaches 9-atom
    # structures, whose 9! embeddings the extension guard refuses
    code, out, err = run(capsys, "fraisse", "20", "9", "--ground-limit", "0", "--check", "9")
    assert code == 3
    assert out == ""
    assert err == "error: 9! embeddings into 9 atoms exceed the extension guard\n"


def test_fraisse_check_refuses_the_large_bases_before_walking_the_small_ones(capsys, monkeypatch):
    # the 12 stages use only the empty base; the check refuses the 8-atom
    # bases before it lists any embedding of a smaller one
    import ramseychoice.selector_models as sm

    find = sm.find_embeddings

    def stage_only(sub, target):
        assert not sub.domain, "a base of the check was walked"
        return find(sub, target)

    sm._extensions.cache_clear()
    monkeypatch.setattr(sm, "find_embeddings", stage_only)
    code, out, err = run(capsys, "fraisse", "20", "12", "--ground-limit", "0", "--check", "12")
    assert (code, out) == (3, "")
    assert err == "error: 9! embeddings into 9 atoms exceed the extension guard\n"


def test_fraisse_check_four_counts_every_missing_extension(capsys):
    code, out, _ = run(capsys, "fraisse", "2", "3", "--check", "4")
    assert code == 1
    assert out.endswith("stage 3: 49 atoms\none-point extensions up to k=4: missing 92629\n")


def test_fraisse_three_three_misses_over_new_atoms(capsys):
    code, out, _ = run(capsys, "fraisse", "3", "3", "--check", "3")
    assert code == 1
    assert out.endswith("stage 3: 49 atoms\none-point extensions up to k=3: missing 2386\n")


def test_verify_rc24_output(capsys):
    code, out, _ = run(capsys, "verify", "rc24")
    assert code == 0
    assert out == (
        "orientations: 64/64 ok\n"
        "cases: singleton=32 pair=24 triple=8\n"
        "equivariance: ok (1536 checks)\n"
    )


def test_verify_claim_output(capsys):
    code, out, _ = run(capsys, "verify", "claim", "--qmax", "8")
    assert code == 0
    assert out == (
        "cycle lengths 2..8: ok\n"
        "invariant subsets checked: 30\n"
    )
    code, out, _ = run(capsys, "verify", "claim", "--qmax", "12", "--json")
    obj = json.loads(out)
    assert obj["ok"] is True
    assert sum(e["invariant_proper_subsets"] for e in obj["per_q"]) == 186


def test_verify_claim_over_the_bound_exits_three_at_once(capsys):
    code, out, err = run(capsys, "verify", "claim", "--qmax", "40")
    assert (code, out) == (3, "")
    assert err == "error: cycle lengths up to 40 take more than 40000000 steps\n"


def test_verify_goldbach_output(capsys):
    code, out, _ = run(capsys, "verify", "goldbach", "--max", "101")
    assert code == 0
    assert out == "odd targets 7..101: all admit a prime triple (48 checked)\n"


def test_verify_goldbach_that_checks_nothing_is_a_usage_error(capsys):
    for max_n in ("5", "-1"):
        assert run(capsys, "verify", "goldbach", "--max", max_n) == (
            2, "", f"error: max_n must be >= 7, got {max_n}\n"
        )


def test_verify_goldbach_bound_exits_three(capsys, monkeypatch):
    import ramseychoice.numtheory as numtheory

    monkeypatch.setattr(numtheory, "GOLDBACH_SEARCH_BOUND", 7)
    code, out, err = run(capsys, "verify", "goldbach", "--max", "11")
    assert (code, out) == (3, "")
    assert err == "error: n = 9 exceeds the triple search bound 7\n"


def test_verify_goldbach_refuses_max_over_the_bound_before_any_search(capsys, monkeypatch):
    import ramseychoice.numtheory as numtheory

    walk, calls = numtheory._walk_goldbach_triples, []

    def counted(n):
        calls.append(n)
        return walk(n)

    monkeypatch.setattr(numtheory, "_walk_goldbach_triples", counted)
    code, out, err = run(capsys, "verify", "goldbach", "--max", "1000003")
    assert (code, out, calls) == (3, "", [])
    assert err == "error: n = 1000001 exceeds the triple search bound 1000000\n"
    # a bound below 7 refuses the first target; a max just under the first refused one searches
    monkeypatch.setattr(numtheory, "GOLDBACH_SEARCH_BOUND", 5)
    code, out, err = run(capsys, "verify", "goldbach", "--max", "7")
    assert (code, out, calls) == (3, "", [])
    assert err == "error: n = 7 exceeds the triple search bound 5\n"
    monkeypatch.setattr(numtheory, "GOLDBACH_SEARCH_BOUND", 12)
    code, out, _ = run(capsys, "verify", "goldbach", "--max", "12")
    assert (code, out, calls) == (0, "odd targets 7..12: all admit a prime triple (3 checked)\n", [7, 9, 11])


def test_verify_goldbach_reports_a_target_without_a_triple(capsys, monkeypatch):
    import ramseychoice.numtheory as numtheory

    # with 5 and 7 taken for composites, 7 keeps (2, 2, 3) and 9 keeps (3, 3, 3), but 11 has no triple
    is_prime = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda x: x not in (5, 7) and is_prime(x))
    code, out, err = run(capsys, "verify", "goldbach", "--max", "11")
    assert (code, out, err) == (1, "odd targets 7..11: failures: [11] (3 checked)\n", "")
    code, out, err = run(capsys, "verify", "goldbach", "--max", "11", "--json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"max": 11, "checked": 3, "ok": False, "failures": [11]}


def test_classify_odd_n_searches_goldbach_up_to_two_to_the_63(capsys):
    code, out, _ = run(capsys, "classify", "3", "1000003")
    assert (code, out) == (0, "RC_3 => RC_1000003: not provable (blocked by 1000003)\n")
    code, out, _ = run(capsys, "classify", "5", "1000003")
    assert (code, out) == (0, "RC_5 => RC_1000003: not provable (blocked by 999983+17+3)\n")
    # past is_prime's range the pair is refused with BoundExceeded, not a ValueError
    code, out, err = run(capsys, "classify", "3", str(2**63 + 1))
    assert (code, out) == (3, "")
    assert err == "error: n = 9223372036854775809 exceeds the primality test's bound 2^63\n"
    # listing every triple keeps the 10^6 ceiling, which no option changes
    assert GOLDBACH_SEARCH_BOUND == 10**6
    assert not hasattr(build_parser().parse_args(["verify", "goldbach"]), "bound")


def test_classify_json_refuses_huge_tables(capsys):
    # the text verdict is cheap; the full admissible-sum table is not
    code, out, _ = run(capsys, "classify", "4", "1099511627776")
    assert code == 0
    assert out.startswith("RC_4 => RC_1099511627776: not provable (blocked by ")
    # two parts summing to 2^40: the table alone would need 2^40 bits
    code, out, err = run(capsys, "classify", "4", "1099511627776", "--json")
    assert (code, out) == (3, "")
    assert "table work bound" in err
    # 10^6 parts of 3: the table would take minutes
    code, out, err = run(capsys, "classify", "4", "3000000", "--json")
    assert (code, out) == (3, "")
    assert "1000000 parts of total 3000000" in err


def test_classify_json_refuses_a_table_too_wide_for_memory(capsys):
    # three parts of total 10^10 + 1 pass the work bound, but their table
    # would be 10^10 bits wide; 10^9 + 1 is under the width bound (CI runs it)
    assert run(capsys, "classify", "4", "10000000001", "--json") == (
        3, "", "error: a table 10000000002 bits wide exceeds the table width bound\n"
    )


def test_classify_json_big_tables_are_pinned(capsys):
    # the full tables of 200,000 parts of 5 (one long run), of 4194301 + 3
    # (a wide, sparse table) and of the one part 5*7*11*13*17*19 (six primes,
    # a dense table), pinned byte for byte
    want = {
        ("4", "1000000"): "1fbed61185e44f214784ece188940f76e118e4f729f85c20a75800e022cb9da2",
        ("4", "4194304"): "bcc9adfd0c1041debbe2bd8ae7c4dd081f0b0ef8c4c27eabbec03fc05702c27d",
        ("3", "1616615"): "3ecd9ea337e9b88127bc4885f4d27d04eb6496e09bacdf5cbbbe1e882c56fcef",
    }
    for (m, n), digest in want.items():
        code, out, _ = run(capsys, "classify", m, n, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


def test_classify_bad_args_exit_two(capsys):
    code, _, err = run(capsys, "classify", "0", "5")
    assert code == 2
    assert err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["classify", "3"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_timing_flag_appends_line(capsys):
    # the elapsed: line goes to stderr, so stdout is the untimed output
    code, out, err = run(capsys, "classify", "3", "7", "--timing")
    assert (code, out) == (0, "RC_3 => RC_7: not provable (blocked by 7)\n")
    assert err.startswith("elapsed: ") and err.count("\n") == 1
    code, out, err = run(capsys, "scan", "5", "5", "--csv", "--timing")
    assert ScanReport.from_csv(out) == run_scan(5, 5)[0]
    assert err.startswith("elapsed: ")


def test_timing_flag_appends_line_on_an_error_exit(capsys):
    # an exit through an exception keeps its code and error line, and is timed too
    for argv, code, err in (
        (("classify", "0", "5"), 2, "error: need positive m and n, got (0, 5)\n"),
        (("certificate", "2", "4"), 1, "error: (2, 4) is provable; no blocking certificate exists\n"),
    ):
        got_code, out, got_err = run(capsys, *argv, "--timing")
        assert (got_code, out) == (code, ""), argv
        error, elapsed = got_err.splitlines(keepends=True)
        assert error == err and elapsed.startswith("elapsed: "), argv


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ramseychoice", "classify", "3", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "RC_3 => RC_7: not provable (blocked by 7)\n"


def test_parser_has_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("classify", "scan", "certificate", "model", "catalog",
                 "fraisse", "verify"):
        assert name in text


def test_each_subcommand_has_exactly_its_options():
    # the values a user can set, in parser order, so adding or dropping one is a visible change
    want = {
        "classify": ["--json", "--oracle", "--timing"],
        "scan": ["--json", "--csv", "--oracle", "--timing"],
        "certificate": ["--json", "--timing"],
        "model": ["--json", "--timing"],
        "catalog": ["--json", "--timing"],
        "fraisse": ["--check", "--ground-limit", "--json", "--timing"],
        "verify": [],
        "verify rc24": ["--json", "--timing"],
        "verify claim": ["--qmax", "--json", "--timing"],
        "verify goldbach": ["--max", "--json", "--timing"],
    }
    got = {}

    def walk(parser, prefix):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    got[prefix + name] = [o for a in sub._actions for o in a.option_strings
                                          if o not in ("-h", "--help")]
                    walk(sub, prefix + name + " ")

    walk(build_parser(), "")
    assert got == want


def test_flags_of_another_target_or_a_second_format_are_usage_errors(capsys):
    # each verify target takes only its own flag, and scan prints CSV or JSON, not both
    for argv, message in (
        (["verify", "rc24", "--max", "5"], "unrecognized arguments: --max 5"),
        (["verify", "rc24", "--max", "5", "--qmax", "3"], "unrecognized arguments: --max 5 --qmax 3"),
        (["verify", "claim", "--max", "5"], "unrecognized arguments: --max 5"),
        (["verify", "goldbach", "--qmax", "3"], "unrecognized arguments: --qmax 3"),
        (["scan", "2", "3", "--csv", "--json"], "argument --json: not allowed with argument --csv"),
        (["scan", "3", "3", "--json", "--csv"], "argument --csv: not allowed with argument --json"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert err.endswith(f"error: {message}\n"), argv
        command = " ".join(argv[:2] if argv[0] == "verify" else argv[:1])
        assert err.startswith(f"usage: ramseychoice {command} [-h]"), argv


def test_scan_row_is_plain_data():
    row = ScanRow(3, 7, "not_provable", "certificate", "OddCase", (7,))
    assert row.parts == (7,)
    assert row == ScanRow(3, 7, "not_provable", "certificate", "OddCase", (7,))


def test_readme_usage_lines_run_cleanly(capsys, caplog):
    # every documented command exits 0 and writes nothing to stderr; pytest
    # takes log records off stderr, so none may be logged either
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Usage", 1)[1].split("```")[1]
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("ramseychoice ")]
    assert len(lines) == 10
    for argv in lines:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv
    assert caplog.records == []
