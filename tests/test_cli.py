import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ramseychoice.cli import _dumps, build_parser, main
from ramseychoice.numtheory import GOLDBACH_SEARCH_BOUND
from ramseychoice.scan import ScanReport, ScanRow, run_scan


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


def test_json_printer_matches_json_dumps_on_every_shape():
    shapes = [
        {}, [], (), 0, -1.5, True, None, "a, b", 'say "x", then {y}: [z]',
        {"empty": [], "none": {}, "flags": [True, False, None], "s": ["a, b", "\"q\", r"]},
        {"sel": [{"subset": [0, 1], "choice": 0}, {"subset": [], "choice": None}]},
        [[], {}, [[]], [{}], [[1, [2, []]]], {"a": {"b": {"c": []}}}],
        {1: [2], True: {"x": 1}, None: "n", 2.5: [3, (4, 5)]},
        ("t", ("u", ()), {"v": ("w",)}),
        {"unicode": "\u00e9\n\t\u2014", "table": list(range(50))},
    ]
    for obj in shapes:
        assert _dumps(obj) == json.dumps(obj, indent=2), obj


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


def test_scan_oracle_agreement_line(capsys):
    code, out, _ = run(capsys, "scan", "8", "8", "--oracle")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 49/49")


def test_scan_oracle_counts_only_pairs_within_the_bound(capsys):
    # pairs with n > bound skip the oracle: 11 values of m times n = 2..10
    code, out, _ = run(capsys, "scan", "12", "12", "--oracle", "--bound", "10")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 99/99")
    code, out, _ = run(capsys, "scan", "12", "12", "--oracle", "--bound", "10", "--json")
    assert code == 0
    assert json.loads(out)["oracle"] == {"checked": 99, "agree": 99}
    assert out.endswith('  "oracle": {\n    "checked": 99,\n    "agree": 99\n  }\n}\n')
    # the report carries the count; a scan without the oracle has none
    assert run_scan(12, 12, bound=10, oracle=True)[0].oracle_checked == 99
    assert run_scan(3, 3)[0].oracle_checked is None


def test_oracle_reaches_the_exhaustive_bound(capsys):
    code, out, _ = run(capsys, "scan", "64", "64", "--oracle")
    assert code == 0
    assert out.rstrip().endswith("oracle agreement: 3969/3969")
    code, out, _ = run(capsys, "classify", "64", "64", "--oracle")
    assert (code, out) == (0, "RC_64 => RC_64: provable (diagonal)\n")


def _oracle_finds_nothing(monkeypatch):
    import ramseychoice.decomposition as dm

    monkeypatch.setattr(dm, "find_blocking_decomposition", lambda m, n, bound: None)


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
        (m, n, f"recipes produced a certificate for ({m}, {n}) but the exhaustive scan found none")
        for m, n in [(2, 3), (3, 2)]
    ]
    # the row comes from the disagreement itself: each pair's recipes run once
    assert calls == [(2, 3), (3, 2)]


def test_scan_oracle_disagreement_exits_one(capsys, monkeypatch):
    _oracle_finds_nothing(monkeypatch)
    code, out, err = run(capsys, "scan", "3", "3", "--oracle")
    assert code == 1
    assert out.rstrip().endswith("oracle agreement: 2/4")
    assert err.splitlines() == [
        f"oracle disagreement at ({m},{n}): recipes produced a certificate for ({m}, {n}) "
        "but the exhaustive scan found none"
        for m, n in [(2, 3), (3, 2)]
    ]


def test_options_of_the_removed_fallback_are_usage_errors(capsys):
    # dispatch has no exhaustive fallback, so nothing is left for these to control
    for argv in (["scan", "12", "12", "--constructive-only"], ["certificate", "6", "9", "--bound", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_scan_json_round_trip():
    report, disagreements = run_scan(9, 9)
    assert disagreements == []
    back = ScanReport.from_json_obj(json.loads(json.dumps(report.to_json_obj())))
    assert back == report


def test_scan_csv_round_trip():
    report, _ = run_scan(9, 9)
    back = ScanReport.from_csv(report.to_csv())
    assert back == report
    # the grid size comes from the rows, so a non-square grid survives too
    report, _ = run_scan(3, 6)
    assert ScanReport.from_csv(report.to_csv()) == report
    with pytest.raises(ValueError):
        ScanReport.from_csv("a,b\n1,2\n")
    with pytest.raises(ValueError):
        ScanReport.from_csv("m,n,verdict,recipe,parts\n")
    with pytest.raises(ValueError):
        ScanReport.from_csv("")


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


def test_catalog_guard_exits_three(capsys):
    code, _, err = run(capsys, "catalog", "2", "9")
    assert code == 3
    assert err


def test_fraisse_output(capsys):
    code, out, _ = run(capsys, "fraisse", "2", "2", "--check", "2")
    assert code == 0
    assert out == (
        "stage 0: 0 atoms\n"
        "stage 1: 1 atoms\n"
        "stage 2: 4 atoms\n"
        "one-point extensions up to k=2: complete\n"
    )


def test_fraisse_incomplete_exits_one(capsys):
    code, out, _ = run(capsys, "fraisse", "2", "1", "--check", "2")
    assert code == 1
    assert "missing" in out


def test_fraisse_cap_exits_three(capsys):
    code, _, err = run(capsys, "fraisse", "2", "3", "--max-atoms", "5")
    assert code == 3
    assert err


def test_fraisse_check_over_the_bound_exits_three(capsys):
    code, out, err = run(capsys, "fraisse", "2", "3", "--check", "5")
    assert code == 3
    assert out == ""
    assert err == "error: 10439548 point types for k = 5 on 49 atoms exceed 2000000\n"


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


def test_verify_goldbach_bound_exits_three(capsys):
    code, _, err = run(capsys, "verify", "goldbach", "--max", "11", "--bound", "7")
    assert code == 3
    assert err


def test_verify_goldbach_refuses_max_over_the_bound_before_any_search(capsys, monkeypatch):
    import ramseychoice.numtheory as numtheory

    walk, calls = numtheory._walk_goldbach_triples, []

    def counted(n, all_odd_preferred):
        calls.append(n)
        return walk(n, all_odd_preferred)

    monkeypatch.setattr(numtheory, "_walk_goldbach_triples", counted)
    code, out, err = run(capsys, "verify", "goldbach", "--max", "1000003")
    assert (code, out, calls) == (3, "", [])
    assert err == "error: n = 1000001 exceeds the triple search bound 1000000\n"
    # a bound below 7 refuses the first target; a max just under the first refused one searches
    code, out, err = run(capsys, "verify", "goldbach", "--max", "7", "--bound", "5")
    assert (code, out, calls) == (3, "", [])
    assert err == "error: n = 7 exceeds the triple search bound 5\n"
    code, out, _ = run(capsys, "verify", "goldbach", "--max", "12", "--bound", "12")
    assert (code, out, calls) == (0, "odd targets 7..12: all admit a prime triple (3 checked)\n", [7, 9, 11])


def test_classify_odd_n_searches_goldbach_up_to_two_to_the_63(capsys):
    code, out, _ = run(capsys, "classify", "3", "1000003")
    assert (code, out) == (0, "RC_3 => RC_1000003: not provable (blocked by 1000003)\n")
    code, out, _ = run(capsys, "classify", "5", "1000003")
    assert (code, out) == (0, "RC_5 => RC_1000003: not provable (blocked by 999983+17+3)\n")
    # past is_prime's range the search refuses with BoundExceeded, not a ValueError
    code, out, err = run(capsys, "classify", "3", str(2**63 + 1))
    assert (code, out) == (3, "")
    assert "exceeds the triple search bound" in err
    # listing every triple keeps the 10^6 ceiling
    assert build_parser().parse_args(["verify", "goldbach"]).bound == GOLDBACH_SEARCH_BOUND
    assert GOLDBACH_SEARCH_BOUND == 10**6


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
    code, out, _ = run(capsys, "classify", "3", "7", "--timing")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "RC_3 => RC_7: not provable (blocked by 7)"
    assert lines[1].startswith("elapsed: ")


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
