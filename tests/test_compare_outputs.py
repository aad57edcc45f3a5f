"""scripts/compare_outputs.py: value-by-value comparison of two output
directories, numeric differences in units of the last printed place."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def write(root, files):
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)


def test_numeric_and_other_differences_are_counted_apart(tmp_path, capsys):
    header = "# fanonet evolve\nN0,L,n,t,P,classification\n"
    write(tmp_path / "a", {
        "p.csv": header + "2,4,1,0,1,unitary\n2,4,1,0.5,0.999999999999,unitary\n",
        "q.json": '{"k": [1.5e-05, 2, true], "only_a": null}\n',
        "same.csv": "1,2\n",
        "lone.txt": "",
    })
    write(tmp_path / "b", {
        # 0.999999999999 -> 1 is one unit of the 12th digit, not of the 1st
        "p.csv": header + "2,4,1,0,1,unitary\n2,4,1,0.5,1,slow_damping\n2,4,1,1,1,unitary\n",
        "q.json": '{"k": [1.7e-05, 2, true], "only_b": null}\n',
        "same.csv": "1,2\n",
    })
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == ("4 files, 3 differ: 2 numeric fields differ, by up to 2 units of the "
                         "last printed place (units: fields 1: 1, 2: 1), the largest |a - b| "
                         "0.000002 at q.json $.k[0]; 4 non-numeric differences")
    for expected in ["  only in the first", "  4 != 5 lines",
                     "  line 4 field 6: 'unitary' != 'slow_damping'",
                     "  $: keys ['k', 'only_a'] != ['k', 'only_b']"]:
        assert expected in lines


def test_equal_directories_exit_zero(tmp_path, capsys):
    files = {"p.csv": "0.5,1e-05\n", "q.json": '{"x": 1.25}\n'}
    write(tmp_path / "a", files)
    write(tmp_path / "b", files)
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "2 files, 0 differ: no numeric field differs; 0 non-numeric differences")


def test_the_largest_absolute_difference_is_reported_with_its_field(tmp_path, capsys):
    # the tiny overlap differs by the most units of its last printed place,
    # the energy by the most in absolute terms
    write(tmp_path / "a", {"p.csv": "E,overlap\n-1.25,4.5e-42\n",
                           "q.json": '{"energy": -0.5, "overlap_sq": 1e-30}\n'})
    write(tmp_path / "b", {"p.csv": "E,overlap\n-1.26,4.9e-42\n",
                           "q.json": '{"energy": -0.503, "overlap_sq": 3e-30}\n'})
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "p.csv:",
        "  2 numeric fields differ, by up to 4 units of the last printed place (units: fields "
        "1: 1, 4: 1), the largest |a - b| 0.01 at line 2 field 1",
        "q.json:",
        "  2 numeric fields differ, by up to 3 units of the last printed place (units: fields "
        "2: 1, 3: 1), the largest |a - b| 0.003 at $.energy",
        "2 files, 2 differ: 4 numeric fields differ, by up to 4 units of the last printed place "
        "(units: fields 1: 1, 2: 1, 3: 1, 4: 1), the largest |a - b| 0.01 at p.csv line 2 "
        "field 1; 0 non-numeric differences",
    ]


def test_texts_of_one_double_are_equal_and_of_two_keep_their_units(tmp_path, capsys):
    # 0.10000000000000001 is 0.1's double in 17 digits; 0.50000000000000011
    # is the next double above 0.5, 11 units of its 17th digit away
    write(tmp_path / "a", {"q.json": '{"x": [0.1, 0.5]}\n'})
    write(tmp_path / "b", {"q.json": '{"x": [0.10000000000000001, 0.50000000000000011]}\n'})
    assert float("0.50000000000000011") == 0.5 + 2.0**-53
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "q.json:",
        "  1 numeric fields differ, by up to 11 units of the last printed place (units: fields "
        "11: 1), the largest |a - b| 1.1e-16 at $.x[1]",
        "1 files, 1 differ: 1 numeric fields differ, by up to 11 units of the last printed place "
        "(units: fields 11: 1), the largest |a - b| 1.1e-16 at q.json $.x[1]; "
        "0 non-numeric differences",
    ]
    write(tmp_path / "c", {"q.json": '{"x": [0.10000000000000001, 0.5]}\n'})
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "c")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "q.json:",
        "  bytes differ, values equal",
        "1 files, 1 differ: no numeric field differs; 1 non-numeric differences",
    ]
