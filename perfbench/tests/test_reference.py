import copy

import reference
from reference import cell_entry, check_cell, check_pass


def make_report(n=6, passed=True, command="theorem"):
    records = [{"index": i, "pass": passed, "lhsResidue": [i % 5, 1],
                "rhsResidue": [i % 5, 1]} for i in range(n)]
    return {"command": command, "params": {"p": 5}, "pass": passed,
            "perSample": records, "failures": 0 if passed else n}


def test_matching_report_has_no_failures():
    rep = make_report()
    tally = check_cell("cell", rep, cell_entry(rep), expected_failure=False)
    assert (tally.attempted, tally.failed, tally.expected_failures) == (6, 0, 0)


def test_single_flipped_record_is_one_failure():
    rep = make_report()
    ref = cell_entry(rep)
    flipped = copy.deepcopy(rep)
    flipped["perSample"][3]["pass"] = False
    flipped["pass"] = False
    tally = check_cell("cell", flipped, ref, expected_failure=False)
    assert (tally.attempted, tally.failed) == (6, 1)


def test_changed_residue_with_same_verdict_is_a_failure():
    rep = make_report()
    ref = cell_entry(rep)
    changed = copy.deepcopy(rep)
    changed["perSample"][2]["lhsResidue"] = [4, 4]
    changed["perSample"][2]["rhsResidue"] = [4, 4]
    assert check_cell("cell", changed, ref, expected_failure=False).failed == 1


def test_precision_shortfall_is_a_failure():
    rep = make_report()
    ref = cell_entry(rep)
    short = copy.deepcopy(rep)
    short["perSample"][0]["precisionShortfall"] = "tail bound"
    assert check_cell("cell", short, ref, expected_failure=False).failed == 1


def test_cell_verdict_change_alone_is_one_failure():
    rep = make_report()
    ref = cell_entry(rep)
    changed = copy.deepcopy(rep)
    changed["pass"] = False  # e.g. the theorem's w-independence pair
    tally = check_cell("cell", changed, ref, expected_failure=False)
    assert (tally.attempted, tally.failed) == (6, 1)


def test_expected_failures_are_not_failures_unless_they_change():
    rep = make_report(n=5, passed=False, command="inversion")
    ref = cell_entry(rep)
    tally = check_cell("inv", rep, ref, expected_failure=True)
    assert (tally.failed, tally.expected_failures) == (0, 5)
    # the same failing records outside the expected list are failures
    assert check_cell("inv", rep, ref, expected_failure=False).failed == 5
    # an expected failure that starts passing no longer matches
    fixed = copy.deepcopy(rep)
    fixed["perSample"][0]["pass"] = True
    tally = check_cell("inv", fixed, ref, expected_failure=True)
    assert (tally.failed, tally.expected_failures) == (1, 4)


def make_inversion_report(ns=(2, 3, 4)):
    records = [{"index": i, "n": n, "checked": 168, "counterexamples": [[1, 2]],
                "counterexampleCount": 150 + n, "frobeniusFormOk": True,
                "pass": False} for i, n in enumerate(ns)]
    return {"command": "inversion", "params": {"p": 13, "k": 2, "ns": list(ns)},
            "pass": False, "perSample": records, "failures": len(ns)}


def test_expected_failure_with_changed_counterexample_count_is_a_failure():
    rep = make_inversion_report()
    ref = cell_entry(rep)
    changed = copy.deepcopy(rep)
    changed["perSample"][1]["counterexampleCount"] += 1
    tally = check_cell("inv", changed, ref, expected_failure=True)
    assert (tally.failed, tally.expected_failures) == (1, 2)


def test_expected_failure_whose_frobenius_form_breaks_is_a_failure():
    rep = make_inversion_report()
    ref = cell_entry(rep)
    broken = copy.deepcopy(rep)
    broken["perSample"][0]["frobeniusFormOk"] = False
    tally = check_cell("inv", broken, ref, expected_failure=True)
    assert (tally.failed, tally.expected_failures) == (1, 2)


def test_other_counterexamples_with_the_same_count_still_match():
    rep = make_inversion_report()
    ref = cell_entry(rep)
    reordered = copy.deepcopy(rep)
    reordered["perSample"][2]["counterexamples"] = [[3, 4]]
    tally = check_cell("inv", reordered, ref, expected_failure=True)
    assert (tally.failed, tally.expected_failures) == (0, 3)


def test_cells_that_raised_or_were_never_reached_fail_all_their_records():
    a, b, c = make_report(4), make_report(3), make_report(2)
    slot_ref = {"cells": {"a": cell_entry(a), "b": cell_entry(b), "c": cell_entry(c)},
                "expectedFailures": []}
    tally = check_pass([("a", a, None), ("b", None, "exceeded the 30 s cell limit")],
                       slot_ref)
    assert (tally.attempted, tally.failed) == (9, 5)
    assert any("exceeded" in p for p in tally.problems)
    assert any("c: not run" in p for p in tally.problems)


def test_committed_references_list_only_criterion_12_failures():
    for workload in ("gate", "series", "residues"):
        ref = reference.load(workload)
        for slot in ref["slots"].values():
            for label in slot["expectedFailures"]:
                assert label.startswith("inversion")
            for label, cell in slot["cells"].items():
                failing = [r for r in cell["records"] if not r[0]]
                assert not failing or label in slot["expectedFailures"]


def test_committed_inversion_references_pin_count_and_frobenius_form():
    slot = reference.load("residues")["slots"]["any"]
    assert slot["expectedFailures"]
    for label in slot["expectedFailures"]:
        for record in slot["cells"][label]["records"]:
            _, _, _, checked, count, frobenius_ok = record
            assert checked > 0 and count > 0 and frobenius_ok is True
