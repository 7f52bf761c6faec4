import json
import subprocess
import sys
from pathlib import Path

import pytest

from orbitheight.cli import list_catalog, main, run_job, validate_job
from orbitheight.errors import ValidationError

GOLDEN = Path(__file__).parent / "golden"

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
    )
    assert result.returncode == 0
    assert (tmp_path / "density-evens.report.csv").exists()


def test_cli_import_does_not_load_numpy():
    code = "import sys, orbitheight.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_point_count_run_does_not_load_numpy(tmp_path):
    code = (
        "import sys; from orbitheight.cli import main; "
        f"rc = main(['run', 'schanuel-p1', '--out', {str(tmp_path)!r}]); "
        "print(rc, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "schanuel-p1.report.csv").exists()


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
    job = tmp_path / "undef.json"
    job.write_text(json.dumps({
        "kind": "dml", "variables": ["x"], "map": ["1/x"],
        "start": ["0"], "Y": ["x"], "N": 5,
    }))
    out_dir = tmp_path / "out"
    assert main(["run", str(job), "--out", str(out_dir)]) == 3
    assert not out_dir.exists()


def test_budget_exit_3(tmp_path):
    job = tmp_path / "big.json"
    job.write_text(json.dumps({"kind": "schanuel", "n": 3, "B_list": [1000]}))
    assert main(["run", str(job), "--out", str(tmp_path / "out")]) == 3


def test_budget_flag(tmp_path):
    job = tmp_path / "tight.json"
    job.write_text(json.dumps({"kind": "schanuel", "n": 1, "B_list": [10]}))
    assert main(["run", str(job), "--out", str(tmp_path / "out"), "--budget", "100"]) == 3
    assert not (tmp_path / "out").exists()
    assert main(["run", str(job), "--out", str(tmp_path / "out2")]) == 0


def test_threads_validated_for_every_kind(tmp_path):
    assert main(["run", "catalan", "--out", str(tmp_path / "out"), "--threads", "0"]) == 2
    assert not (tmp_path / "out").exists()


def test_run_job_from_explicit_path(tmp_path):
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


def test_validation_error_type():
    with pytest.raises(ValidationError):
        run_job("definitely-not-a-job")


@pytest.fixture
def int_str_limit():
    """Pin CPython's int-to-str digit limit at its default for one test."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(old)


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
