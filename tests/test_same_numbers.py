"""tests/same_numbers.py --compare: the differing leaves of two outputs."""

import json

from same_numbers import differing_leaves, main, report

A = {"clouds": {"seed3/0": {"check": "killing",
                            "residuals": ["0x0.0p+0", "0x1.8p-52"]}},
     "cli": {"seed3/0": {"code": 0, "rows": [{"status": "pass"}]}},
     "charges": {"free/nfev": 12}}


def _changed():
    b = json.loads(json.dumps(A))
    b["clouds"]["seed3/0"]["residuals"][1] = "0x1.9p-52"
    b["cli"]["seed3/0"]["rows"].append({"status": "fail"})
    b["charges"]["free/nfev"] = 12.0        # another type, an equal value
    del b["clouds"]["seed3/0"]["check"]
    return b


def test_equal_outputs_have_no_differing_leaf():
    assert list(differing_leaves(A, json.loads(json.dumps(A)))) == []
    assert report([]) == "0 differing leaves\n"


def test_each_differing_leaf_is_named_by_its_path():
    paths = list(differing_leaves(A, _changed()))
    assert paths == [("charges", "free/nfev"),
                     ("cli", "seed3/0", "rows", 1),
                     ("clouds", "seed3/0", "check"),
                     ("clouds", "seed3/0", "residuals", 1)]
    assert report(paths, shown=2) == (
        "4 differing leaves\n"
        "charges / free/nfev\n"
        "cli / seed3/0 / rows / 1\n"
        "... and 2 more\n")


def test_the_compare_mode_reads_two_files(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(A))
    b.write_text(json.dumps(_changed()))
    assert main(["--compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out == "0 differing leaves\n"
    assert main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.startswith("4 differing leaves\n")
