import json
import sys

import pytest

from gbent import (
    built_function_doc,
    construction_to_text,
    example_maiorana_q21,
    example_maiorana_q27,
    function_to_text,
    load_function,
    spectrum_records,
    wht_naive,
)
from gbent.cli import compare_reference_tables, main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def q27_file(tmp_path):
    return write(tmp_path / "f27.json", function_to_text(built_function_doc(example_maiorana_q27())))


@pytest.fixture
def q21_file(tmp_path):
    return write(tmp_path / "f21.json", function_to_text(built_function_doc(example_maiorana_q21())))


@pytest.fixture
def spec21_file(tmp_path):
    return write(tmp_path / "spec21.json", construction_to_text(example_maiorana_q21()))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_gbent_exit_zero(capsys, q27_file):
    code, out, err = run(capsys, "analyze", "--input", q27_file)
    assert code == 0
    assert "verdict: gbent, regular (alpha = +1)" in out
    assert "(0,0,0,0)\t+1\t0\t0\t0" in out


def test_analyze_not_gbent_exit_one(capsys, tmp_path):
    path = write(tmp_path / "zero.json", json.dumps({"p": 3, "n": 1, "q": 3, "table": [0, 0, 0]}) + "\n")
    code, out, err = run(capsys, "analyze", "--input", path)
    assert code == 1
    assert "verdict: not gbent" in out
    assert "(0)" in out  # witness at the origin


def test_analyze_invalid_file_exit_two_no_output(capsys, tmp_path):
    path = write(tmp_path / "bad.json", json.dumps({"p": 3, "n": 1, "q": 3, "table": [0, 0, 3]}))
    code, out, err = run(capsys, "analyze", "--input", path)
    assert code == 2
    assert out == ""  # no partial output
    assert "table[2]" in err


def test_analyze_missing_file_exit_two(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--input", str(tmp_path / "absent.json"))
    assert code == 2 and out == ""


def test_construct_then_analyze_pipeline(capsys, tmp_path, spec21_file):
    out_path = tmp_path / "f21.json"
    code, _, _ = run(capsys, "construct", "--input", spec21_file, "--output", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "analyze", "--input", str(out_path))
    assert code == 0
    assert "gbent" in out and "regular" in out


def test_construct_bad_spec_exit_two(capsys, tmp_path):
    path = write(tmp_path / "bad.json", "{}")
    code, out, err = run(capsys, "construct", "--input", path)
    assert code == 2 and out == ""


def test_tables_match_bundled_goldens(capsys):
    code, out, err = run(capsys, "tables")
    assert code == 0
    assert "table q27: 7 golden rows, 0 mismatches" in out
    assert "table q21: 81 golden rows, 0 mismatches" in out
    assert "(0,2,2,2)\tz3^2*H9[1]" in out  # reference anchor rows
    assert "(1,2,2,2)\tz3^1*H9[1]" in out


def test_tables_detect_mismatch(capsys, tmp_path):
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    write(golden_dir / "table_q27.txt", "0 0 0 0 +1 1 5\n")
    write(golden_dir / "table_q21.txt", "0 0 0 0 +1 0 1\n")
    code, out, err = run(capsys, "tables", "--golden", str(golden_dir))
    assert code == 1
    assert "differs at (0,0,0,0)" in out


def test_compare_reference_tables_api():
    for name in ("q27", "q21"):
        mismatches, labeling = compare_reference_tables(name)
        assert mismatches == [] and labeling == "identity"


def test_spectrum_dump(capsys, tmp_path):
    path = write(tmp_path / "f.json", json.dumps({"p": 3, "n": 1, "q": 9, "table": [0, 0, 0]}) + "\n")
    code, out, err = run(capsys, "spectrum", "--input", path)
    assert code == 0
    assert "u=(0) S=(mod 36) 3 norm=9" in out
    assert "u=(1) S=(mod 36) 0 norm=0" in out


def test_spectrum_delimited_deterministic(capsys, tmp_path):
    path = write(tmp_path / "f.json", json.dumps({"p": 3, "n": 2, "q": 9, "table": [0, 1, 2, 3, 4, 5, 6, 7, 8]}) + "\n")
    code1, out1, _ = run(capsys, "spectrum", "--input", path, "--format", "delimited")
    code2, out2, _ = run(capsys, "spectrum", "--input", path, "--format", "delimited")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0].count("\t") == 2


def test_cli_spectra_avoid_naive_transform(capsys, monkeypatch, q27_file, q21_file):
    def refuse(*args, **kwargs):
        raise AssertionError("wht_naive reached from the CLI")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gbent" and hasattr(module, "wht_naive"):
            monkeypatch.setattr(module, "wht_naive", refuse)
    for path in (q27_file, q21_file):
        code, out, _ = run(capsys, "analyze", "--input", path)
        assert code == 0 and "verdict: gbent, regular (alpha = +1)" in out
        code, out, _ = run(capsys, "spectrum", "--input", path, "--format", "delimited")
        assert code == 0 and out
    code, out, _ = run(capsys, "tables")
    assert code == 0 and "0 mismatches, 0 undecomposed" in out


def test_spectrum_delimited_equals_naive_records(capsys, q27_file, q21_file):
    for path in (q27_file, q21_file):
        code, out, _ = run(capsys, "spectrum", "--input", path, "--format", "delimited")
        records = spectrum_records(wht_naive(load_function(path).function))
        assert code == 0
        assert out.splitlines() == [
            f"{','.join(map(str, u))}\t{text}\t{norm}" for u, text, norm in records
        ]


def test_jobs_flag_deterministic(capsys, q27_file):
    _, out1, _ = run(capsys, "analyze", "--input", q27_file, "--jobs", "1")
    _, out2, _ = run(capsys, "analyze", "--input", q27_file, "--jobs", "2")
    assert out1 == out2


def test_enumerate_census(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "3", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "18 bent / 27 total"
    assert len(lines) == 19


def test_enumerate_quadratic_sweep(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "3", "--n", "2")
    assert code == 0
    assert out.splitlines()[0].startswith("54 bent / 54 tested")


def test_enumerate_out_of_envelope(capsys):
    code, out, err = run(capsys, "enumerate", "--p", "5", "--n", "1")
    assert code == 2 and out == ""


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest", "--seed", "7")
    assert code == 0
    assert "12/12 suites passed" in out


@pytest.mark.parametrize(
    "argv", [("selftest", "--seed", "0"), ("enumerate", "--p", "3", "--n", "1")]
)
def test_format_flag_not_accepted(capsys, argv):
    # selftest and enumerate have a single output layout.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "delimited"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_output_file_written(capsys, tmp_path, q27_file):
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "analyze", "--input", q27_file, "--output", str(out_path))
    assert code == 0
    assert out == ""
    assert "verdict: gbent" in out_path.read_text()
