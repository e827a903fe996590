import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gbent import (
    all_points,
    built_function_doc,
    construction_to_text,
    example_maiorana_q21,
    example_maiorana_q27,
    function_to_text,
    load_function,
    spectrum_records,
    wht_naive,
)
from gbent.cli import _fmt_point, _point_labels, compare_reference_tables, main
from conftest import replace_everywhere


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


@pytest.mark.parametrize("p,n", [(3, 1), (3, 4), (5, 3), (7, 2)])
def test_point_labels_in_point_index_order(p, n):
    labels = _point_labels(p, n)
    assert ["(" + label + ")" for label in labels] == [_fmt_point(u) for u in all_points(p, n)]


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


def test_selftest_as_main_imports_no_second_cli():
    # python -m runs cli.py as __main__; a suite that imported gbent.cli
    # would compile and run the whole module a second time.
    code = (
        "import runpy, sys\n"
        "sys.argv = ['gbent', 'selftest', '--seed', '0']\n"
        "try:\n"
        "    runpy.run_module('gbent.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    print('exit', e.code, 'gbent.cli' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.stderr == ""
    assert done.stdout.splitlines()[-2:] == ["selftest: 12/12 suites passed (seed=0)",
                                             "exit 0 False"]


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


GOLDEN_DIR = Path(__file__).parent / "data" / "cli"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_cli_output_matches_golden(capsys, monkeypatch, case):
    # Inputs and recorded stdout live side by side; the argv names inputs
    # relative to that directory.
    monkeypatch.chdir(GOLDEN_DIR)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{case['name']}.out").read_bytes()


def test_crash_exits_three_not_one(capsys, monkeypatch):
    # analyze exits 1 on "not gbent"; a fault inside the toolkit must not
    # read as a verdict, nor leave half a report on stdout.
    from gbent import classify
    from gbent.errors import InternalConsistencyError

    def broken(*args, **kwargs):
        raise InternalConsistencyError("label check failed")

    monkeypatch.setattr(classify, "_candidate_keys", broken)
    code, out, err = run(capsys, "analyze", "--input", str(GOLDEN_DIR / "q27_table.json"))
    assert (code, out) == (3, "")
    assert "Traceback" in err and "InternalConsistencyError: label check failed" in err


def _count_calls(monkeypatch, original):
    """Record every call to original through any gbent module that holds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    replace_everywhere(monkeypatch, original, counted)
    return calls


@pytest.mark.parametrize("name", ["q27_table", "q27_components", "q21_components",
                                  "q21_table"])
def test_analyze_runs_one_butterfly(capsys, monkeypatch, name):
    # A table at q = p^k, a components file at q = p^k and one at general q,
    # and a table at general q: the verdict, spectral form and row table
    # share one butterfly, and the table is never split into digits. Only
    # the table at general q has no row table.
    from gbent import gbfunc, transform

    butterflies = _count_calls(monkeypatch, transform._group_ring_butterfly)
    digit_calls = _count_calls(monkeypatch, gbfunc.digits)
    code, out, _ = run(capsys, "analyze", "--input", str(GOLDEN_DIR / f"{name}.json"))
    assert code == 0 and ("\t-\t-\t" in out) == (name == "q21_table")
    assert (len(butterflies), len(digit_calls)) == (1, 0)


ANALYZE_CASES = [c for c in GOLDEN_CASES if c["argv"][0] == "analyze"]


@pytest.mark.parametrize("case", ANALYZE_CASES, ids=[c["name"] for c in ANALYZE_CASES])
def test_analyze_skips_the_oracles(capsys, monkeypatch, case):
    # analyze reads every input off its one butterfly: the CycInt-path
    # classifiers and the separate spectrum are never called.
    from gbent import classify, transform

    def refuse(*args, **kwargs):
        raise AssertionError("oracle called by analyze")

    for oracle in (classify.regularity, classify.is_gbent, classify.spectral_form,
                   transform.wht_fast):
        replace_everywhere(monkeypatch, oracle, refuse)
    monkeypatch.chdir(GOLDEN_DIR)
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], "")
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{case['name']}.out").read_bytes()


@pytest.mark.parametrize(
    "q27_bytes, needle",
    [(b"0 0 0 0 +1 x 0\n", "table_q27.txt:1: invalid literal"),
     (b"0 0 0 3 +1 0 0\n", "table_q27.txt:1: coordinate 3 out of range"),
     (b"\xff\xfe\x7b", "table_q27.txt: not UTF-8")],
    ids=["non-integer-field", "coordinate-outside-Zp", "not-utf8"],
)
def test_tables_malformed_golden_exit_two(capsys, tmp_path, q27_bytes, needle):
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    (golden_dir / "table_q27.txt").write_bytes(q27_bytes)
    write(golden_dir / "table_q21.txt", "0 0 0 0 +1 0 1\n")
    code, out, err = run(capsys, "tables", "--golden", str(golden_dir))
    assert code == 2 and out == ""
    assert needle in err


@pytest.mark.parametrize("command", ["analyze", "spectrum", "construct"])
def test_non_utf8_input_exit_two(capsys, tmp_path, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x7b")
    code, out, err = run(capsys, command, "--input", str(path))
    assert code == 2 and out == ""
    assert "UTF-8" in err


OUTPUT_ARGV = {
    "analyze": ["--input", "{q27}"],
    "construct": ["--input", "{spec21}"],
    "tables": [],
    "spectrum": ["--input", "{q27}"],
    "enumerate": ["--p", "3", "--n", "1"],
    "selftest": ["--seed", "0"],
}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", sorted(OUTPUT_ARGV))
def test_unwritable_output_exit_two(capsys, tmp_path, q27_file, spec21_file, command, target):
    # analyze exits 1 on "not gbent", so a failed write must not look like it.
    path = str(tmp_path / "absent" / "out.txt" if target == "missing-directory" else tmp_path)
    argv = [a.format(q27=q27_file, spec21=spec21_file) for a in OUTPUT_ARGV[command]]
    code, out, err = run(capsys, command, *argv, "--output", path)
    assert (code, out) == (2, "")
    reason = "No such file or directory" if target == "missing-directory" else "Is a directory"
    assert err == f"{command}: cannot write {path}: {reason}\n"


# A valid spec on Z_3^2; each case below changes one field to a value that
# is not an integer of the field's range.
SMALL_SPEC = {"p": 3, "m": 1, "q": 9, "beta": [1], "affines": [{"c": 0, "w": [1]}]}


@pytest.mark.parametrize(
    "changes, needle",
    [({"q": 0, "affines": []}, "q must be an integer >= 1, got 0"),
     ({"q": -3, "affines": []}, "q must be an integer >= 1, got -3"),
     ({"m": 1.0}, "m must be an integer >= 1, got 1.0"),
     ({"m": True}, "m must be an integer >= 1, got True"),
     ({"beta": [1.0]}, "beta[0] must be an integer in [1, 3), got 1.0"),
     ({"affines": [{"c": 0.0, "w": [1]}]}, "affines[0].c must be an integer in [0, 3), got 0.0")],
    ids=["q-zero", "q-negative", "m-float", "m-bool", "beta-float", "c-float"],
)
def test_construct_bad_field_exit_two(capsys, tmp_path, changes, needle):
    path = write(tmp_path / "spec.json", json.dumps({**SMALL_SPEC, **changes}))
    code, out, err = run(capsys, "construct", "--input", path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and needle in err


def test_analyze_bool_field_exit_two(capsys, tmp_path):
    path = write(tmp_path / "f.json", '{"p": 3, "n": true, "q": 3, "table": [0, 1, 2]}\n')
    code, out, err = run(capsys, "analyze", "--input", path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "n must be an integer >= 1, got True" in err


def test_tables_digit_reversed_golden_exit_zero(capsys, tmp_path):
    # Relabel every q27 row r = 3 v_1 + v_2 as 3 v_2 + v_1; the q21 rows stay.
    from importlib import resources

    data = resources.files("gbent").joinpath("data")
    rows = []
    for line in data.joinpath("table_q27.txt").read_text().splitlines():
        fields = line.split()
        if fields and not line.startswith("#"):
            r = int(fields[6])
            fields[6] = str(3 * (r % 3) + r // 3)
        rows.append(" ".join(fields))
    golden_dir = tmp_path / "golden"
    golden_dir.mkdir()
    write(golden_dir / "table_q27.txt", "\n".join(rows) + "\n")
    write(golden_dir / "table_q21.txt", data.joinpath("table_q21.txt").read_text())
    assert any(r.endswith(" 3") for r in rows)  # some label really moved
    code, out, err = run(capsys, "tables", "--golden", str(golden_dir))
    assert (code, err) == (0, "")
    assert "table q27: 7 golden rows, 0 mismatches, 0 undecomposed points " \
        "(row labeling: digit-reversed)" in out
    assert "(row labeling: identity)" in out  # q21


P61 = 2**61 - 1  # a Mersenne prime


@pytest.mark.parametrize(
    "command, payload, needle",
    [("analyze", {"p": 3, "n": 30000000, "q": 3, "table": [0]}, "table length 1 != 3^30000000"),
     ("analyze", {"p": P61, "n": 1, "q": P61, "table": [0]}, f"table length 1 != {P61}^1"),
     ("analyze", {"p": P61, "n": 1, "q": P61, "components": [[0]]}, f"table length 1 != {P61}^1"),
     ("analyze", {"p": P61, "n": 1, "q": P61, "components": []}, "needs at least one component"),
     ("construct", {"p": P61, "m": 1, "q": P61, "beta": [1], "affines": []},
      f"p^(2m) = {P61}^2 points exceed 2^32"),
     ("construct", {"p": 3, "m": 12, "q": 3, "beta": [1] * 12, "affines": []},
      "p^(2m) = 3^24 points exceed 2^32"),
     ("analyze", {"p": 3, "n": 1, "q": 3 * 10**12, "table": [0, 0, 0]},
      f"ring modulus {3 * 10**12} exceeds 5000"),
     ("analyze", {"p": 3, "n": 1, "q": 3**30, "table": [0, 0, 0]},
      f"ring modulus {4 * 3**30} exceeds 5000")],
    ids=["huge-n", "huge-p-table", "huge-p-components", "huge-p-no-components",
         "huge-p-spec", "spec-3^24-points", "huge-q", "q-3^30"],
)
def test_unbuildable_input_exit_two_at_once(tmp_path, command, payload, needle):
    # A fresh process, so no cache hides the cost; each of these ran for
    # seconds, or ran out of memory, before its size was checked ahead of
    # the primality test and of any ring table.
    path = write(tmp_path / "input.json", json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-S", "-m", "gbent.cli", command, "--input", path],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.count("\n") == 1 and needle in done.stderr
