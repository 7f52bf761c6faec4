import json
import math
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orbitheight
from orbitheight.cli import list_catalog, main, run_job, validate_job
from orbitheight.density import EventuallyPeriodicSet
from orbitheight.dfinite import parse_recurrence_job
from orbitheight.errors import InvalidParameter, ValidationError

GOLDEN = Path(__file__).parent / "golden"


def child_env() -> dict:
    """The environment with the package's source directory first on
    PYTHONPATH, so a child interpreter imports the package under test."""
    source = str(Path(orbitheight.__file__).resolve().parent.parent)
    path = [source, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

ENUMERATED_FIXTURES = [
    "example-5-2-commuting",
    "catalan",
    "factorial",
    "fibonacci",
    "motzkin",
    "period-3",
    "dml-alternation",
    "schanuel-p1",
    "schanuel-p2",
]


def test_catalog_contents():
    names = list_catalog()
    assert names == sorted(names)
    for fixture in ENUMERATED_FIXTURES:
        assert fixture in names
    assert names  # nonempty


def test_catalog_command(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == list_catalog()


@pytest.mark.parametrize("name", sorted(ENUMERATED_FIXTURES) + [
    "orbit-affine", "gap-affine", "density-evens",
])
def test_golden_reports(name, tmp_path):
    csv_path, json_path = run_job(name, out_dir=tmp_path)
    for produced in (csv_path, json_path):
        expected = GOLDEN / produced.name
        assert produced.read_bytes() == expected.read_bytes(), produced.name


def test_repeated_runs_byte_identical(tmp_path):
    a_csv, a_json = run_job("example-5-2-commuting", out_dir=tmp_path / "a")
    b_csv, b_json = run_job("example-5-2-commuting", out_dir=tmp_path / "b")
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


def test_thread_count_invariance(tmp_path):
    one_csv, one_json = run_job("schanuel-p2", out_dir=tmp_path / "t1", threads=1)
    four_csv, four_json = run_job("schanuel-p2", out_dir=tmp_path / "t4", threads=4)
    assert one_csv.read_bytes() == four_csv.read_bytes()
    assert one_json.read_bytes() == four_json.read_bytes()


def test_run_cli_process_roundtrip(tmp_path):
    # full process check once; everything else goes through main() in-process
    result = subprocess.run(
        [sys.executable, "-m", "orbitheight.cli", "run", "density-evens",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert (tmp_path / "density-evens.report.csv").exists()


def test_cli_import_does_not_load_numpy():
    code = "import sys, orbitheight.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_point_count_run_does_not_load_numpy(tmp_path):
    code = (
        "import sys; from orbitheight.cli import main; "
        f"rc = main(['run', 'schanuel-p1', '--out', {str(tmp_path)!r}]); "
        "print(rc, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "schanuel-p1.report.csv").exists()


def test_gap_window_repeat_reports(tmp_path):
    # x -> 1/(1-x) has period 3 from 2: 2, -1, 1/2, 2, ...
    job = tmp_path / "gap-period-3.json"
    job.write_text(json.dumps({"kind": "gap", "variables": ["x"], "map": ["1/(1-x)"],
                               "observable": "x", "start": ["2"], "N": 20, "ell": 2}))
    csv_path, json_path = run_job(job, out_dir=tmp_path / "out")
    assert csv_path.read_text().splitlines()[-1] == "window_repeat,i=0;j=3;verified_to=17"
    assert json.loads(json_path.read_text())["window_repeat"] == {
        "i": 0, "j": 3, "period": 3, "verified_to": 17}


def test_commuting_with_every_slice_undefined_exit_3(tmp_path, capsys):
    # 1/x sends the start 0 off the chart, so no cell of norm >= 1 is defined
    job = tmp_path / "undefined-slices.json"
    job.write_text(json.dumps({"kind": "commuting", "variables": ["x"], "maps": [["1/x"]],
                               "observable": "x", "start": ["0"], "N": 4, "N0": 2}))
    out_dir = tmp_path / "out"
    assert main(["run", str(job), "--out", str(out_dir)]) == 3
    assert "every requested slice is undefined or filtered out" in capsys.readouterr().err
    assert not out_dir.exists()


def test_commuting_omits_an_undefined_slice(tmp_path):
    # the observable is 0/0 at x = 3, so the one cell of norm 3 is undefined
    job = tmp_path / "undefined-cell.json"
    job.write_text(json.dumps({"kind": "commuting", "variables": ["x"], "maps": [["x+1"]],
                               "observable": "(x-3)/(x-3)", "start": ["0"], "N": 5, "N0": 2}))
    csv_path, json_path = run_job(job, out_dir=tmp_path / "out")
    assert csv_path.read_text().splitlines() == [
        "n1,value,height", "0,(1:1),0.000000", "1,(1:1),0.000000", "2,(1:1),0.000000",
        "4,(1:1),0.000000", "5,(1:1),0.000000"]
    payload = json.loads(json_path.read_text())
    assert (payload["entries"], payload["undefined"]) == (5, 1)
    assert [(st["s"], st["M_s"], st["argmax"]) for st in payload["slices"]] == [
        (2, "0.000000", [2]), (4, "0.000000", [4]), (5, "0.000000", [5])]
    assert (payload["sup_ratio"], payload["sup_at"]) == ("0.000000", 2)


def test_validate_catalog_jobs():
    for name in list_catalog():
        validate_job(name)  # must not raise


def test_validate_command(capsys, tmp_path):
    assert main(["validate", "catalan"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "orbit", "variables": ["x"], "map": ["x+"], '
                   '"observable": "x", "start": ["0"], "N": 3}')
    assert main(["validate", str(bad)]) == 2


def test_malformed_json_exit_2_no_output(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    out_dir = tmp_path / "out"
    assert main(["run", str(bad), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("text", [
    b'{"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x", '
    b'"start": [1e-400], "N": 3}',
    b'{"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x", '
    b'"start": [0.30000000000000001], "N": 3}',
    b'{"kind": "dfinite", "order": 1, "coeffs": ["-(n+1)", "1"], "initial": {"0": 1e-400}}',
    b'{"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x", '
    b'"start": ["0"], "N": 3, "\xff": 0}',
], ids=["start-underflow", "start-rounded", "initial-underflow", "not-utf-8"])
def test_unreadable_job_text_exit_2_no_output(text, tmp_path):
    """A rational written as a JSON number, which the JSON parser has
    already rounded (1e-400 to 0), and a job file that is not UTF-8 exit 2
    under `validate` and `run` and write nothing."""
    path = tmp_path / "job.json"
    path.write_bytes(text)
    out_dir = tmp_path / "out"
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_unknown_kind_exit_2(tmp_path):
    job = tmp_path / "weird.json"
    job.write_text('{"kind": "frobnicate"}')
    assert main(["run", str(job)]) == 2


def test_missing_file_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_unknown_variable_exit_2(tmp_path):
    job = tmp_path / "badvar.json"
    job.write_text(json.dumps({
        "kind": "orbit", "variables": ["x"], "map": ["x+q"],
        "observable": "x", "start": ["0"], "N": 3,
    }))
    out_dir = tmp_path / "out"
    assert main(["run", str(job), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_zero_denominator_expression_exit_2(tmp_path):
    job = tmp_path / "div0.json"
    job.write_text(json.dumps({
        "kind": "orbit", "variables": ["x"], "map": ["x+1"],
        "observable": "1/0", "start": ["0"], "N": 3,
    }))
    out_dir = tmp_path / "out"
    assert main(["run", str(job), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()


def test_runtime_indeterminacy_exit_3(tmp_path):
    jobs = [
        {"kind": "dml", "variables": ["x"], "map": ["1/x"], "start": ["0"], "Y": ["x"], "N": 5},
        # the observable is 0/0 at n = 0, so the trace has no rows
        {"kind": "gap", "variables": ["x"], "map": ["x+1"], "observable": "(x-1)/(x-1)",
         "start": ["1"], "N": 10},
    ]
    for k, data in enumerate(jobs):
        job = tmp_path / f"undef{k}.json"
        job.write_text(json.dumps(data))
        out_dir = tmp_path / f"out{k}"
        assert main(["run", str(job), "--out", str(out_dir)]) == 3
        assert not out_dir.exists()


def test_height_past_the_double_range_exit_3(tmp_path, capsys):
    # x^2 from 2 has 2^n + 1 bits at n, a bit count past the double range at
    # n = 1024; its certified values are exact intervals, so it gets there at once
    job = tmp_path / "square.json"
    job.write_text(json.dumps({"kind": "gap", "variables": ["x"], "map": ["x^2"],
                               "observable": "x", "start": ["2"], "N": 1030}))
    out_dir = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["run", str(job), "--out", str(out_dir)]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "bit count past the double range" in capsys.readouterr().err
    assert not out_dir.exists()


def test_budget_exit_3(tmp_path, capsys, int_str_limit):
    # boxes of about 10^12, 10^4400 and 10^2600000 vectors: the last two are
    # past the int-to-str limit, and none of them is built
    for k, data in enumerate([{"n": 3, "B_list": [1000]}, {"n": 1, "B_list": [10**2200]},
                              {"n": 645, "B_list": [10**4000]}]):
        job = tmp_path / f"big{k}.json"
        job.write_text(json.dumps({"kind": "schanuel", **data}))
        out_dir = tmp_path / f"out{k}"
        t0 = time.perf_counter()
        assert main(["run", str(job), "--out", str(out_dir)]) == 3
        assert time.perf_counter() - t0 < 0.5
        assert capsys.readouterr().err.startswith("runtime error:")
        assert not out_dir.exists()


def test_budget_flag(tmp_path):
    job = tmp_path / "tight.json"
    job.write_text(json.dumps({"kind": "schanuel", "n": 1, "B_list": [10]}))
    assert main(["run", str(job), "--out", str(tmp_path / "out"), "--budget", "100"]) == 3
    assert not (tmp_path / "out").exists()
    assert main(["run", str(job), "--out", str(tmp_path / "out2")]) == 0
    # at B = 1 the ratio is (3^(n+1) - 1)/2, a double up to n = 645
    for n, code in ((645, 0), (1000, 2)):
        job.write_text(json.dumps({"kind": "schanuel", "n": n, "B_list": [1]}))
        out_dir = tmp_path / f"out-n{n}"
        assert main(["run", str(job), "--out", str(out_dir), "--budget", str(10**500)]) == code
        assert out_dir.exists() == (code == 0)


def test_threads_validated_for_every_kind(tmp_path):
    assert main(["run", "catalan", "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
    assert not (tmp_path / "out").exists()


GAP_JOB = {"kind": "gap", "variables": ["x"], "map": ["x+1"], "observable": "x",
           "start": ["0"], "N": 10}
DFINITE_JOB = {"kind": "dfinite", "order": 1, "coeffs": ["-(n+1)", "1"],
               "initial": {"0": "1"}, "offset": 0, "N": 30}
ORBIT_JOB = {"kind": "orbit", "variables": ["x", "y"], "map": ["y", "x+y"],
             "observable": "x/y", "start": ["0", "1"], "N": 5}
COMMUTING_JOB = {"kind": "commuting", "variables": ["x", "y"],
                 "maps": [["x+1", "y"], ["x", "y+1"]], "observable": "x*y",
                 "start": ["1", "1"], "N": 4}
DENSITY_JOB = {"kind": "density", "set": {"modulus": 2, "residues": [0]}}
DML_JOB = {"kind": "dml", "variables": ["x"], "map": ["x+1"], "start": ["0"],
           "Y": ["x-3"], "N": 10}


def _without(job, key):
    return {k: v for k, v in job.items() if k != key}


BAD_FIELD_CASES = [
    ({"kind": "schanuel", "n": 1, "B_list": [True]}, {"B_list": [1]}),
    # dimensions whose ratio at B = 1 would overflow a double
    ({"kind": "schanuel", "n": 646, "B_list": [1]}, {"n": 1}),
    ({"kind": "schanuel", "n": 10000, "B_list": [1]}, {"n": 1}),
    ({**GAP_JOB, "tail_fraction": True}, {"tail_fraction": 1}),
    ({**GAP_JOB, "curve_constants": [True]}, {"curve_constants": [1]}),
    ({**GAP_JOB, "curve_constants": [math.nan]}, {"curve_constants": [1.5]}),
    ({**DFINITE_JOB, "epsilon": True}, {"epsilon": 1}),
    ({**DFINITE_JOB, "epsilon": math.inf}, {"epsilon": 0.25}),
    (_without(DFINITE_JOB, "order"), {"order": 1}),
    (_without(DFINITE_JOB, "coeffs"), {"coeffs": ["-(n+1)", "1"]}),
    ({**DFINITE_JOB, "order": "x"}, {"order": 1}),
    ({**DFINITE_JOB, "order": 1.7}, {"order": 1}),
    ({**DFINITE_JOB, "offset": "z"}, {"offset": 0}),
    ({**DFINITE_JOB, "offset": -1}, {"offset": 0}),
    ({**DFINITE_JOB, "initial": {"a": "1"}}, {"initial": {"0": "1"}}),
    ({**DFINITE_JOB, "initial": ["1"]}, {"initial": {"0": "1"}}),
    ({**DFINITE_JOB, "initial": {"0": "1/0"}}, {"initial": {"0": "1"}}),
    # index keys that int() would merge with "0" or read as 3
    ({**DFINITE_JOB, "initial": {"0": "1", "00": "5"}}, {"initial": {"0": "1"}}),
    ({**DFINITE_JOB, "initial": {"0": "1", "\u0660": "7"}}, {"initial": {"0": "1"}}),
    ({**DFINITE_JOB, "initial": {"0": "1", "\u0663": "1"}}, {"initial": {"0": "1", "3": "1"}}),
    ({**ORBIT_JOB, "map": "xy"}, {"map": ["y", "x+y"]}),
    ({**ORBIT_JOB, "map": [1, "x+y"]}, {"map": ["y", "x+y"]}),
    ({**COMMUTING_JOB, "maps": [["x+1", 2], ["x", "y+1"]]}, {"maps": COMMUTING_JOB["maps"]}),
    ({**ORBIT_JOB, "variables": ["x", "x"], "map": ["x", "x+1"], "observable": "x"},
     {"variables": ["x", "y"]}),
    ({**DENSITY_JOB, "set": {"modulus": True, "residues": [0]}}, DENSITY_JOB),
    ({**DENSITY_JOB, "set": {"modulus": "2", "residues": [0]}}, DENSITY_JOB),
    ({**DENSITY_JOB, "set": {"modulus": 2, "residues": [0.5]}}, DENSITY_JOB),
    ({**DENSITY_JOB, "set": {"modulus": 2, "residues": [0], "added": ["7"]}}, DENSITY_JOB),
    ({**COMMUTING_JOB, "T": {"modulus": "2", "residues": [0]}},
     {"T": {"modulus": 2, "residues": [0]}}),
    ({**ORBIT_JOB, "start": ["0", "1/0"]}, {"start": ["0", "1"]}),
    ({**DENSITY_JOB, "set": {"modulus": 2.7, "residues": [1]}}, DENSITY_JOB),
    ({**DENSITY_JOB, "set": {"modulus": 2, "residues": ["1"]}}, DENSITY_JOB),
    ({**DENSITY_JOB, "set": {"modulus": 2, "residues": [True]}}, DENSITY_JOB),
    # grids past the fixed limits of 3 maps and norm 200
    ({**COMMUTING_JOB, "maps": COMMUTING_JOB["maps"] * 2, "N": 3},
     {"maps": COMMUTING_JOB["maps"] + [["x+2", "y"]]}),
    ({**COMMUTING_JOB, "N": 201}, {"N": 4}),
    # rationals in Arabic-Indic digits, which Fraction() would read as 3/2 and 3
    ({**ORBIT_JOB, "start": ["0", "\u0663/\u0662"]}, {"start": ["0", "3/2"]}),
    ({**DFINITE_JOB, "initial": {"0": "\u0663"}}, {"initial": {"0": "3"}}),
    # horizons that leave no index past N0 (default 10 for dfinite)
    ({**DFINITE_JOB, "N": 4}, {"N": 11}),
    ({**GAP_JOB, "N": 2, "N0": 2}, {"N": 3}),
    # decimal exponents that Fraction() would expand into 10^2000000
    ({**ORBIT_JOB, "start": ["0", "1e2000000"]}, {"start": ["0", "1e2"]}),
    ({**ORBIT_JOB, "start": ["0", "1e-2000000"]}, {"start": ["0", "1e-2"]}),
    ({**DFINITE_JOB, "initial": {"0": "1e2000000"}}, {"initial": {"0": "1e2"}}),
    ({**DFINITE_JOB, "initial": {"0": "1e-2000000"}}, {"initial": {"0": "1e-2"}}),
    # real fields past the double range, which float() cannot convert
    ({**GAP_JOB, "curve_constants": [10**400]}, {"curve_constants": [1.5]}),
    ({**DFINITE_JOB, "epsilon": 10**400}, {"epsilon": 0.25}),
    # exact values as JSON numbers, which the JSON parser has already rounded
    ({**ORBIT_JOB, "start": ["0", 0.5]}, {"start": ["0", "1/2"]}),
    ({**DFINITE_JOB, "initial": {"0": 1.5}}, {"initial": {"0": "3/2"}}),
    ({**ORBIT_JOB, "observable": 5}, {"observable": "5"}),
    ({**DML_JOB, "Y": [0]}, {"Y": ["x-3"]}),
    ({**DFINITE_JOB, "coeffs": [-1, 1]}, {"coeffs": ["-(n+1)", "1"]}),
    # cross-field rules that run would break on
    ({**COMMUTING_JOB, "N0": 9}, {"N0": 4}),
    ({**COMMUTING_JOB, "T": {"modulus": 100, "residues": [50]}}, {"N": 50}),
    ({**GAP_JOB, "ell": 11}, {"ell": 10}),
    # recurrence terms that the horizon needs: a_0, and a_6 past the root of n - 5
    (_without(DFINITE_JOB, "initial"), {"initial": {"0": "1"}}),
    ({**DFINITE_JOB, "coeffs": ["-(n+1)", "n-5"]}, {"initial": {"0": "1", "6": "1"}}),
]
BAD_FIELD_IDS = [
    "B_list", "schanuel-n-646", "schanuel-n-10000", "tail_fraction", "curve_constants",
    "curve_constants-nan", "epsilon",
    "epsilon-inf", "order-missing", "coeffs-missing", "order-str", "order-float", "offset-str",
    "offset-negative", "initial-key", "initial-list", "initial-zero-den",
    "initial-leading-zero", "initial-arabic-indic-zero", "initial-arabic-indic-three",
    "map-str", "map-int",
    "maps-int", "variables-dup", "modulus-true", "modulus-str", "residues-float",
    "added-str", "T-modulus-str", "start-zero-den", "modulus-float", "residues-str",
    "residues-true", "maps-over-limit", "norm-over-limit", "start-arabic-indic",
    "initial-arabic-indic-term", "dfinite-N-below-N0", "gap-N-equal-N0",
    "start-exponent-large", "start-exponent-small", "initial-exponent-large",
    "initial-exponent-small", "curve_constants-overflow", "epsilon-overflow", "start-float",
    "initial-float", "observable-number", "Y-number", "coeffs-number", "commuting-N-below-N0",
    "commuting-T-no-norm", "gap-ell-above-N", "dfinite-missing-initial",
    "dfinite-missing-singular"]
# cases that no reader of one field can see: the dfinite terms needed depend on N
NEEDS_N = {"dfinite-missing-initial", "dfinite-missing-singular"}


@pytest.mark.parametrize("job, fixed", BAD_FIELD_CASES, ids=BAD_FIELD_IDS)
def test_non_numeric_field_exit_2_no_output(job, fixed, tmp_path):
    """A field of the wrong JSON type or shape exits 2 without output (true,
    NaN, Infinity and an int past the double range are not real numbers, "2"
    is not an integer, a string is not a list, a rational or expression is a
    string and not a JSON number, an index or rational is written in ASCII
    digits, an index without leading zeros), and so does a point count in a
    dimension past 645, a grid past the fixed limits, a horizon N <= N0 (N <
    N0 for commuting), a commuting set T with no norm in [N0, N], a gap
    window ell > N, a recurrence term that the horizon N needs and the job
    does not supply, or a rational with a decimal exponent past 9999, all
    within a second; the same job with a well-formed field runs.  `validate`
    gives the same exit code as `run` on both."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(job))
    out_dir = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["validate", str(path)]) == 2
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert not out_dir.exists()
    path.write_text(json.dumps({**job, **fixed}))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out", str(out_dir)]) == 0


# the job fields that parse_recurrence_job and EventuallyPeriodicSet.from_json read
READER_FIELDS = {"order", "offset", "coeffs", "initial", "set", "T"}


def _read_fields(job: dict):
    if job["kind"] == "dfinite":
        return parse_recurrence_job(job)
    return EventuallyPeriodicSet.from_json(job["set" if job["kind"] == "density" else "T"])


@pytest.mark.parametrize("job, fixed", [
    pytest.param(*case, id=name) for case, name in zip(BAD_FIELD_CASES, BAD_FIELD_IDS)
    if case[1].keys() & READER_FIELDS and name not in NEEDS_N
])
def test_library_readers_reject_what_the_cli_rejects(job, fixed):
    """Each bad recurrence or set field above fails in the library reader
    itself, with the error that the CLI maps to exit 2."""
    with pytest.raises(InvalidParameter):
        _read_fields(job)
    _read_fields({**job, **fixed})


# Non-integral coefficients: the dfinite recurrence is scaled to integral
# ones and a dml equation is replaced by its numerator; neither changes the
# reports, which are pinned here as the Fraction-coefficient polynomials gave them.
RATIONAL_COEFFICIENT_JOBS = {
    "dfinite": (
        {"kind": "dfinite", "order": 2, "coeffs": ["n/2+1", "-1/3", "1"],
         "initial": {"0": "1", "1": "1/2"}, "N": 12},
        "n,term,height,ratio\n0,1,0.000000,\n1,1/2,0.693147,\n2,-5/6,1.791759,2.584963\n"
        "3,-37/36,3.610918,3.286799\n4,143/108,4.962845,3.579936\n"
        "5,1951/648,7.576097,4.707294\n6,-5771/1944,8.660601,4.833573\n"
        "7,-134455/11664,11.808985,6.068618\n8,281057/34992,12.546313,6.033501\n"
        "9,11452969/209952,16.253760,7.397405\n10,-13842161/629856,16.443230,7.141204\n"
        "11,-1161528253/3779136,20.873002,8.704718\n12,333425135/11337408,19.624929,7.897652\n",
        {"kind": "dfinite", "N": 12, "N0": 10, "epsilon": "0.500000", "verdict": "height-growth",
         "preperiod": None, "period": None, "verified_to": None, "tail_ratio": "8.704718"},
    ),
    "dml": (
        {"kind": "dml", "variables": ["x", "y"], "map": ["y", "x"], "start": ["2", "5/3"],
         "Y": ["x/2 - 1"], "N": 12},
        "n,component\n" + "".join(f'{n},"progression(a=0,d=2)"\n' for n in range(0, 13, 2)),
        {"hits": [0, 2, 4, 6, 8, 10, 12], "progressions": [{"a": 0, "d": 2}], "residual": [],
         "residual_density": "0"},
    ),
}


@pytest.mark.parametrize("kind", sorted(RATIONAL_COEFFICIENT_JOBS))
def test_rational_coefficient_reports(kind, tmp_path):
    job, csv_text, payload = RATIONAL_COEFFICIENT_JOBS[kind]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(job))
    csv_path, json_path = run_job(path, out_dir=tmp_path / "out")
    assert csv_path.read_text(encoding="utf-8") == csv_text
    assert json_path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


def test_directory_as_job_path_exit_2_no_output(tmp_path):
    (tmp_path / "x.json").mkdir()
    out_dir = tmp_path / "out"
    assert main(["run", str(tmp_path / "x.json"), "--out", str(out_dir)]) == 2
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.json"]


def test_dml_sporadic_hits_are_residual(tmp_path):
    # x = n hits x*(x-3)*(x-7) = 0 at n = 0, 3, 7 only: no progression of 5 terms
    job = tmp_path / "sporadic.json"
    job.write_text(json.dumps({"kind": "dml", "variables": ["x"], "map": ["x+1"],
                               "start": ["0"], "Y": ["x*(x-3)*(x-7)"], "N": 10}))
    csv_path, json_path = run_job(job, out_dir=tmp_path / "out")
    assert csv_path.read_text() == "n,component\n0,residual\n3,residual\n7,residual\n"
    payload = json.loads(json_path.read_text())
    assert payload["progressions"] == [] and payload["residual"] == [0, 3, 7]


def test_run_job_from_explicit_path(tmp_path, monkeypatch):
    job = tmp_path / "tiny-orbit.json"
    job.write_text(json.dumps({
        "kind": "orbit", "variables": ["x"], "map": ["2*x"],
        "observable": "x", "start": ["1"], "N": 4,
    }))
    csv_path, json_path = run_job(job)
    assert csv_path.parent == tmp_path  # written next to the input
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "0,1,(1:1),0.000000,"
    payload = json.loads(json_path.read_text())
    assert payload["stop_reason"] == "completed"
    # a catalog job has no input directory: its reports go to the cwd
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run_job("catalan")[0] == work / "catalan.report.csv"


def test_validation_error_type():
    with pytest.raises(ValidationError):
        run_job("definitely-not-a-job")


@pytest.mark.parametrize("name", [
    "", "../cli", "../catalog/catalan", "..\\catalog\\catalan", "catalog/catalan",
    ".hidden", "catalan.json",
])
def test_non_catalog_name_exit_2_no_output(name, tmp_path, monkeypatch):
    """A catalog name is a plain bundled job name: a path separator, a
    leading dot or a file suffix never reaches a bundled file."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    out_dir = tmp_path / "out"
    assert main(["run", name, "--out", str(out_dir)]) == 2
    assert main(["validate", name]) == 2
    assert not out_dir.exists()
    assert list(work.iterdir()) == []


def test_rerun_writes_over_old_reports_in_place(tmp_path, monkeypatch):
    """A re-run opens the old report files without O_TRUNC and writes over
    them: they keep their inodes and hold exactly the new bytes after a
    longer and after a shorter old report."""
    csv_path, json_path = run_job("catalan", out_dir=tmp_path)
    inodes = [os.stat(p).st_ino for p in (csv_path, json_path)]
    opened = []
    os_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        opened.append((Path(path).name, flags & os.O_TRUNC))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for old in (b"9" * 100_000, b"\n"):
        csv_path.write_bytes(old)
        json_path.write_bytes(old)
        opened.clear()
        assert run_job("catalan", out_dir=tmp_path) == (csv_path, json_path)
        assert opened == [(csv_path.name, 0), (json_path.name, 0)]
        for produced in (csv_path, json_path):
            assert produced.read_bytes() == (GOLDEN / produced.name).read_bytes()
        assert [os.stat(p).st_ino for p in (csv_path, json_path)] == inodes


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_new_report_mode_matches_write_text(umask, tmp_path):
    old_umask = os.umask(umask)
    try:
        reports = run_job("density-evens", out_dir=tmp_path)
        reference = tmp_path / "reference.txt"
        reference.write_text("x", encoding="utf-8")
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE(reference.stat().st_mode)
    assert [stat.S_IMODE(p.stat().st_mode) for p in reports] == [mode, mode]


def test_report_symlinks_write_through(tmp_path):
    """A report path that is a symlink writes its target, which is created
    when missing, as `Path.write_text` would."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    csv_target, json_target = tmp_path / "kept.csv", tmp_path / "new.json"
    csv_target.write_bytes(b"old report\n" * 1000)
    (out_dir / "catalan.report.csv").symlink_to(csv_target)
    (out_dir / "catalan.report.json").symlink_to(json_target)
    csv_path, json_path = run_job("catalan", out_dir=out_dir)
    assert csv_path.is_symlink() and json_path.is_symlink()
    assert csv_target.read_bytes() == (GOLDEN / "catalan.report.csv").read_bytes()
    assert json_target.read_bytes() == (GOLDEN / "catalan.report.json").read_bytes()


def test_report_path_that_is_a_directory_raises_as_write_text(tmp_path):
    blocked = tmp_path / "catalan.report.csv"
    blocked.mkdir()
    with pytest.raises(OSError) as by_write_text:
        blocked.write_text("x", encoding="utf-8")
    with pytest.raises(type(by_write_text.value)):
        run_job("catalan", out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["catalan.report.csv"]


def test_out_path_that_is_a_file_exit_3(tmp_path, capsys):
    blocked = tmp_path / "out"
    blocked.write_bytes(b"not a directory\n")
    assert main(["run", "catalan", "--out", str(blocked)]) == 3
    assert capsys.readouterr().err.startswith("runtime error:")
    assert blocked.read_bytes() == b"not a directory\n"


def test_failed_run_leaves_old_reports_untouched(tmp_path):
    job = tmp_path / "undef.json"
    job.write_text(json.dumps({"kind": "dml", "variables": ["x"], "map": ["1/x"],
                               "start": ["0"], "Y": ["x"], "N": 5}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    old = {}
    for suffix in ("csv", "json"):
        report = out_dir / f"undef.report.{suffix}"
        report.write_bytes(f"old {suffix} report\n".encode() * 50)
        old[report] = report.read_bytes()
    assert main(["run", str(job), "--out", str(out_dir)]) == 3
    assert {report: report.read_bytes() for report in old} == old
    assert sorted(out_dir.iterdir()) == sorted(old)


@pytest.mark.parametrize("job", [
    # values of x^2+1 from 1/3 pass 4300 digits at n = 13
    {"kind": "orbit", "variables": ["x"], "map": ["x^2+1"],
     "observable": "x", "start": ["1/3"], "N": 13},
    # the factorial job: n! passes 4300 digits before n = 2000
    {"kind": "dfinite", "order": 1, "coeffs": ["-(n+1)", "1"],
     "initial": {"0": "1"}, "offset": 0, "N": 2000},
], ids=["orbit-square", "factorial"])
def test_value_past_int_str_limit_exit_3_no_output(job, tmp_path, capsys, int_str_limit):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(job))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error:")
    assert f"{int_str_limit} decimal digits" in err
    assert not out_dir.exists()


def test_zero_denominator_of_a_huge_coefficient_map_exit_3(tmp_path, capsys, int_str_limit):
    """The check of x -> 1 against this map composes to 1/0.  The message
    names the component by its index, not by its text, whose coefficient
    of 6000 digits is past the int-to-str limit."""
    job = {"kind": "commuting", "variables": ["x"], "observable": "x", "start": ["2"], "N": 3,
           "maps": [["(" + "9" * 3000 + "*x)^2/(x-1)"], ["1"]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(job))
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 3
    assert capsys.readouterr().err == (
        "runtime error: the denominator of component 0 is identically zero after substitution\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("text", [
    # a JSON integer past the int-from-str limit
    '{"kind": "orbit", "variables": ["x"], "map": ["x+1"], "observable": "x", '
    '"start": ["0"], "N": 1' + "0" * 4300 + "}",
    # an expression literal past the same limit
    json.dumps({**GAP_JOB, "map": ["x+1" + "0" * 4300]}),
    # str.isdigit digits that are not ASCII
    json.dumps({**GAP_JOB, "map": ["x^\u00b2"]}),
    json.dumps({**GAP_JOB, "map": ["x^\u0663"]}),
], ids=["json-int", "literal", "superscript-two", "arabic-indic-three"])
def test_oversized_or_non_ascii_integer_exit_2_no_output(text, tmp_path, capsys, int_str_limit):
    path = tmp_path / "digits.json"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")
    assert not out_dir.exists()
