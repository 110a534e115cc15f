"""Command line round trips and exit code contract."""

import csv
import hashlib
import json

import pytest
from click.testing import CliRunner

from multipool import analytics, cli, montecarlo
from multipool.cli import main

runner = CliRunner()


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# --- design and validate -----------------------------------------------------

def test_design_then_validate_json(tmp_path):
    path = tmp_path / "d.json"
    result = runner.invoke(main, ["design", "--q", "4", "--m", "3", "--output", str(path)])
    assert result.exit_code == 0, result.output
    assert "items: 16" in result.stdout
    assert "pools: 12" in result.stdout

    check = runner.invoke(main, ["validate", str(path)])
    assert check.exit_code == 0, check.output
    assert "multipool: yes" in check.stdout


def test_design_then_validate_csv(tmp_path):
    path = tmp_path / "d.csv"
    result = runner.invoke(
        main,
        ["design", "--q", "5", "--m", "4", "--output", str(path), "--format", "csv"],
    )
    assert result.exit_code == 0, result.output

    check = runner.invoke(main, ["validate", str(path), "--q", "5", "--m", "4"])
    assert check.exit_code == 0, check.output

    missing_meta = runner.invoke(main, ["validate", str(path)])
    assert missing_meta.exit_code == 2
    assert "--q and --m" in missing_meta.stderr


def test_design_rejects_bad_parameters(tmp_path):
    path = str(tmp_path / "d.json")
    too_many = runner.invoke(main, ["design", "--q", "7", "--m", "9", "--output", path])
    assert too_many.exit_code == 2
    no_field = runner.invoke(main, ["design", "--q", "6", "--m", "2", "--output", path])
    assert no_field.exit_code == 2


def test_validate_flags_a_corrupted_design(tmp_path):
    path = tmp_path / "d.json"
    runner.invoke(main, ["design", "--q", "3", "--m", "2", "--output", str(path)])
    doc = json.loads(path.read_text())
    doc["pools"][0] = [0, 1, 3]
    path.write_text(json.dumps(doc))

    check = runner.invoke(main, ["validate", str(path)])
    assert check.exit_code == 1
    assert "multipool: no" in check.stdout
    assert "col_sum" in check.stdout


def test_validate_rejects_a_boolean_pool_entry(tmp_path):
    path = tmp_path / "d.json"
    runner.invoke(main, ["design", "--q", "2", "--m", "1", "--output", str(path)])
    doc = json.loads(path.read_text())
    doc["pools"][0] = [False, True]
    path.write_text(json.dumps(doc))
    check = runner.invoke(main, ["validate", str(path)])
    assert check.exit_code == 2
    assert "non-integer" in check.stderr


def test_validate_reports_parse_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1,0\n0,x,1\n")
    check = runner.invoke(main, ["validate", str(path), "--q", "2", "--m", "1"])
    assert check.exit_code == 2
    assert "(line 2, column 2)" in check.stderr


def test_validate_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"0,1\n1,\xff\n")
    check = runner.invoke(main, ["validate", str(path), "--q", "2", "--m", "1"])
    assert check.exit_code == 2
    assert check.exception is None or isinstance(check.exception, SystemExit)
    assert check.stderr.startswith("error: ")
    assert "not UTF-8" in check.stderr


# --- analyze -------------------------------------------------------------------

def _analyze(path, statistic, m, extra=()):
    args = [
        "analyze",
        "--statistic", statistic,
        "--sweep", "rho",
        "--start", "0.01",
        "--stop", "0.1",
        "--step", "0.01",
        "--q", "16",
        "--m", str(m),
        "--pfp", "0.02",
        "--pfn", "0.02",
        "--output", str(path),
    ]
    args.extend(extra)
    return runner.invoke(main, args)


def test_analyze_writes_the_curve(tmp_path):
    path = tmp_path / "sens.csv"
    result = _analyze(path, "sens", m=4)
    assert result.exit_code == 0, result.output
    rows = _read_csv(path)
    assert len(rows) == 10
    assert list(rows[0]) == ["rho", "sens", "q", "m", "nc", "pfp", "pfn"]
    assert rows[0]["q"] == "16"
    # Higher prevalence means co-infected pools, which only helps recall.
    values = [float(row["sens"]) for row in rows]
    assert values == sorted(values)
    assert 0.0 < values[0] < values[-1] < 1.0


def test_analyze_curves_order_by_multiplicity(tmp_path):
    curves = {}
    for m in (2, 4, 6):
        path = tmp_path / f"sens_{m}.csv"
        assert _analyze(path, "sens", m=m).exit_code == 0
        curves[m] = [float(row["sens"]) for row in _read_csv(path)]
    for low, high in ((2, 4), (4, 6)):
        for a, b in zip(curves[low], curves[high]):
            assert b <= a + 1e-12


def test_analyze_output_is_reproducible(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _analyze(first, "typeI", m=4).exit_code == 0
    assert _analyze(second, "typeI", m=4).exit_code == 0
    assert first.read_bytes() == second.read_bytes()


_COUNT_STATISTICS = {"e_T", "e_Tfp", "e_Tfn", "var_T_bound", "var_Tfp_bound"}


@pytest.mark.parametrize("statistic", [statistic.cli for statistic in analytics.STATISTICS])
def test_analyze_count_statistics_need_n(tmp_path, statistic):
    # The five count statistics refuse to run without --n; the four
    # ratios need no item count.
    result = _analyze(tmp_path / "x.csv", statistic, m=4)
    if statistic in _COUNT_STATISTICS:
        assert result.exit_code == 2
        assert result.stderr == f"error: --n is required for statistic {statistic}\n"
    else:
        assert result.exit_code == 0, result.output


def test_analyze_writes_n_after_the_other_parameters(tmp_path):
    path = tmp_path / "e.csv"
    with_n = _analyze(path, "e_T", m=4, extra=["--n", "256"])
    assert with_n.exit_code == 0
    rows = _read_csv(path)
    assert list(rows[0]) == ["rho", "e_T", "q", "m", "nc", "pfp", "pfn", "n"]


def test_analyze_bounds_outside_their_hypotheses_fail(tmp_path):
    path = tmp_path / "v.csv"
    result = _analyze(path, "var_T_bound", m=4, extra=["--n", "256"])
    assert result.exit_code == 1


def test_analyze_grid_validation(tmp_path):
    path = str(tmp_path / "x.csv")
    double_fix = runner.invoke(
        main,
        ["analyze", "--statistic", "sens", "--sweep", "rho", "--values", "0.1",
         "--rho", "0.2", "--q", "4", "--m", "2", "--output", path],
    )
    assert double_fix.exit_code == 2
    missing_rho = runner.invoke(
        main,
        ["analyze", "--statistic", "sens", "--sweep", "m", "--values", "1,2",
         "--q", "4", "--output", path],
    )
    assert missing_rho.exit_code == 2
    fractional_m = runner.invoke(
        main,
        ["analyze", "--statistic", "sens", "--sweep", "m", "--values", "1.5",
         "--rho", "0.1", "--q", "4", "--output", path],
    )
    assert fractional_m.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["--sweep", "m", "--values", "nan", "--rho", "0.1"],
     "sweep over m needs integer grid values, got nan"),
    (["--sweep", "m", "--values", "inf", "--rho", "0.1"],
     "sweep over m needs integer grid values, got inf"),
    (["--sweep", "nc", "--values", "inf", "--rho", "0.1", "--m", "3"],
     "sweep over nc needs integer grid values, got inf"),
    (["--sweep", "rho", "--m", "3", "--start", "0.1", "--stop", "nan", "--step", "0.1"],
     "--stop must be finite, got nan"),
    (["--sweep", "rho", "--m", "3", "--start", "0.1", "--stop", "inf", "--step", "0.1"],
     "--stop must be finite, got inf"),
    (["--sweep", "rho", "--m", "3", "--start", "nan", "--stop", "0.2", "--step", "0.1"],
     "--start must be finite, got nan"),
    (["--sweep", "rho", "--m", "3", "--start", "0.1", "--stop", "0.2", "--step", "nan"],
     "--step must be finite, got nan"),
])
def test_analyze_refuses_a_grid_that_is_not_finite(tmp_path, args, message):
    path = tmp_path / "curve.csv"
    result = runner.invoke(
        main, ["analyze", "--statistic", "sens", "--q", "8", *args, "--output", str(path)]
    )
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"error: {message}\n")
    assert not path.exists()


@pytest.mark.parametrize("start, stop, step", [
    ("0", "1e300", "1e-300"),  # a count past any float
    ("0", "1", "1e-12"),  # a count past any list
    ("0", "1", "1e-6"),  # 1000001 points
])
def test_analyze_refuses_a_grid_too_long_to_list(tmp_path, start, stop, step):
    path = tmp_path / "curve.csv"
    result = runner.invoke(
        main,
        ["analyze", "--statistic", "sens", "--sweep", "rho", "--start", start, "--stop", stop,
         "--step", step, "--q", "8", "--m", "3", "--output", str(path)],
    )
    message = "error: --start/--stop/--step give more than 1000000 grid points\n"
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", message)
    assert not path.exists()


def test_analyze_lists_a_grid_of_the_most_points_it_allows(tmp_path, monkeypatch):
    # Five points under a cap of five; a sixth is refused.
    monkeypatch.setattr(cli, "_GRID_POINTS", 5)
    path = tmp_path / "curve.csv"
    args = ["analyze", "--statistic", "sens", "--sweep", "rho", "--start", "0", "--step", "0.1",
            "--q", "8", "--m", "3", "--output", str(path)]
    assert runner.invoke(main, [*args, "--stop", "0.4"]).exit_code == 0
    assert len(_read_csv(path)) == 5
    assert runner.invoke(main, [*args, "--stop", "0.5"]).exit_code == 2


def test_analyze_integer_sweep(tmp_path):
    path = tmp_path / "m.csv"
    result = runner.invoke(
        main,
        ["analyze", "--statistic", "spec", "--sweep", "m", "--start", "1",
         "--stop", "5", "--step", "1", "--rho", "0.05", "--q", "16",
         "--output", str(path)],
    )
    assert result.exit_code == 0, result.output
    rows = _read_csv(path)
    assert [row["m"] for row in rows] == ["1", "2", "3", "4", "5"]
    values = [float(row["spec"]) for row in rows]
    assert values == sorted(values)


# The sha256 of each statistic's curve over one noiseless nc = 0 grid,
# where all nine exist: the CSV bytes of every --statistic choice.
_ANALYZE_PINS = {
    "sens": "4a21eee4006e5637de8429bb1326d4468c6cde23f54f36112408034117e6da6d",
    "spec": "c62fd30db44da48c44b6ace27e731247a1c19f3c75b35b81140c8b2e38b19aab",
    "typeI": "af4a6d07d464ffde99b21bcc878e8c07e4131510b4be35a44644edacb9b1c021",
    "typeII": "b29297f83ea15ed778008fb329984a05f9715ae65932476936c6250bc8bb32d5",
    "e_T": "1bc452a50788a7f94ea4950cdeb1c096874261514128c240cb0518d49918db21",
    "e_Tfp": "6242b3b8c096e912c942c80b994438bd7758c1f1d66bbb7cbad860fa11f1216a",
    "e_Tfn": "5b96731d363222a5b03e380e9a9c58448438269d3532c4d96a6cf09cfb90e87d",
    "var_T_bound": "8cfa206115a9a79cfe11e58a688588538d0706f634427bedb0a58be825790164",
    "var_Tfp_bound": "6d230ffafe4b12961786556b46266a02fba38453afd9940965f15ed8ac3a5231",
}


@pytest.mark.parametrize("statistic", sorted(_ANALYZE_PINS))
def test_analyze_curves_match_their_pins(tmp_path, statistic):
    path = tmp_path / "curve.csv"
    result = runner.invoke(main, [
        "analyze", "--statistic", statistic, "--sweep", "rho", "--values", "0.01,0.05,0.1",
        "--q", "8", "--m", "3", "--n", "64", "--output", str(path),
    ])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _ANALYZE_PINS[statistic]


@pytest.mark.parametrize("args, code, stderr", [
    (["--statistic", "typeI", "--values", "0"], 1,
     "error: typeI at rho=0.0: nothing is ever flagged positive in this scenario\n"),
    (["--statistic", "var_T_bound", "--values", "0.1", "--nc", "1", "--n", "64"], 1,
     "error: variance bounds hold only for nc = 0\n"),
    (["--statistic", "e_T", "--values", "0.1"], 2, "error: --n is required for statistic e_T\n"),
])
def test_analyze_refusals_match_their_pins(tmp_path, args, code, stderr):
    path = tmp_path / "curve.csv"
    result = runner.invoke(
        main, ["analyze", "--sweep", "rho", "--q", "8", "--m", "3", *args, "--output", str(path)]
    )
    assert (result.exit_code, result.stdout, result.stderr) == (code, "", stderr)
    assert not path.exists()


def test_analyze_help_matches_its_pin():
    result = runner.invoke(main, ["analyze", "--help"], terminal_width=80)
    assert result.exit_code == 0
    assert result.stdout == """\
Usage: main analyze [OPTIONS]

  Tabulate one statistic over a parameter grid into a CSV curve.

Options:
  --statistic [e_T|e_Tfn|e_Tfp|sens|spec|typeI|typeII|var_T_bound|var_Tfp_bound]
                                  Which closed-form statistic to tabulate.
                                  [required]
  --sweep [rho|m|q|nc]            The parameter the grid runs over.  [required]
  --start FLOAT
  --stop FLOAT
  --step FLOAT
  --values TEXT                   Explicit comma-separated grid.
  --rho FLOAT                     Prevalence in [0, 1].
  --q INTEGER
  --m INTEGER
  --nc INTEGER                    [default: 0]
  --pfp FLOAT                     Per-pool false positive rate.  [default: 0.0]
  --pfn FLOAT                     Per-pool false negative rate.  [default: 0.0]
  --n INTEGER                     Item count (needed by count statistics).
  --output FILE                   Destination CSV file.  [required]
  --help                          Show this message and exit.
"""


# --- simulate -------------------------------------------------------------------

SIMULATE_ARGS = [
    "simulate", "--q", "8", "--m", "3", "--rho", "0.05",
    "--pfp", "0.02", "--pfn", "0.02", "--trials", "20000", "--seed", "11",
]


def test_simulate_gates_and_reports(tmp_path):
    path = tmp_path / "report.json"
    result = runner.invoke(main, SIMULATE_ARGS + ["--output", str(path)])
    assert result.exit_code == 0, result.output
    assert "pass sens:" in result.stdout
    doc = json.loads(path.read_text())
    assert doc["passed"] is True
    assert doc["trials"] == 20000
    assert len(doc["rows"]) == 9


def test_simulate_reports_are_byte_identical(tmp_path, monkeypatch):
    # A 128 KiB batch budget splits these 20000 trials into five batches,
    # so --threads 4 runs them on the caller and three helpers.
    monkeypatch.setattr(montecarlo, "_BATCH_BYTES", 1 << 17)
    paths = [tmp_path / name for name in ("a.json", "b.json", "c.json")]
    assert runner.invoke(main, SIMULATE_ARGS + ["--output", str(paths[0])]).exit_code == 0
    assert runner.invoke(main, SIMULATE_ARGS + ["--output", str(paths[1])]).exit_code == 0
    threaded = SIMULATE_ARGS + ["--threads", "4", "--output", str(paths[2])]
    assert runner.invoke(main, threaded).exit_code == 0
    first = paths[0].read_bytes()
    assert paths[1].read_bytes() == first
    assert paths[2].read_bytes() == first


def test_simulate_parameter_errors(tmp_path):
    zero_trials = runner.invoke(
        main, ["simulate", "--q", "4", "--m", "2", "--rho", "0.1", "--trials", "0"]
    )
    assert zero_trials.exit_code == 2
    wrong_n = runner.invoke(
        main,
        ["simulate", "--q", "4", "--m", "2", "--rho", "0.1", "--trials", "10", "--n", "20"],
    )
    assert wrong_n.exit_code == 2


_ANALYZE = ["analyze", "--statistic", "sens", "--sweep", "rho", "--q", "4", "--m", "2"]


@pytest.mark.parametrize("args, gate, code, message", [
    # The grid rules of analyze.
    (_ANALYZE + ["--values", "0.1", "--start", "0"], None, 2, "not both"),
    (_ANALYZE + ["--values", "0.1,x"], None, 2, "could not parse --values"),
    (_ANALYZE + ["--values", ","], None, 2, "--values is empty"),
    (_ANALYZE + ["--start", "0.1", "--stop", "0.2"], None, 2, "all of --start/--stop/--step"),
    (_ANALYZE + ["--start", "0.1", "--stop", "0.2", "--step", "0"], None, 2,
     "--step must be positive"),
    (_ANALYZE + ["--start", "0.2", "--stop", "0.1", "--step", "0.05"], None, 2,
     "--stop 0.1 is below --start 0.2"),
    # Parameters outside their domain, and a statistic undefined at a point.
    (_ANALYZE + ["--values", "0.1", "--pfp", "1.5"], None, 2, "p_fp must lie in [0, 1]"),
    (_ANALYZE + ["--values", "0.1,1.5"], None, 2,
     "invalid grid point rho=1.5: prevalence must lie in [0, 1]"),
    (["analyze", "--statistic", "typeI", "--sweep", "rho", "--q", "4", "--m", "2",
      "--values", "0"], None, 1, "typeI at rho=0.0: nothing is ever flagged positive"),
    # A simulation that fails its gate: with no tolerance, every row whose
    # estimate misses its closed form fails.
    (["simulate", "--q", "4", "--m", "2", "--rho", "0.1", "--trials", "100"], 0.0, 1,
     "FAIL spec"),
])
def test_error_exits(tmp_path, monkeypatch, args, gate, code, message):
    if gate is not None:
        monkeypatch.setattr(montecarlo, "_Z_GATE", gate)
    if args[0] == "analyze":
        args = args + ["--output", str(tmp_path / "curve.csv")]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert message in result.stderr + result.stdout
    assert not (tmp_path / "curve.csv").exists()


def test_simulate_rejects_a_zero_thread_count():
    result = runner.invoke(
        main,
        ["simulate", "--q", "4", "--m", "2", "--rho", "0.1", "--trials", "10", "--threads", "0"],
    )
    assert result.exit_code == 2
    assert "thread count must be positive" in result.stderr


# --- tune -----------------------------------------------------------------------

def test_tune_reports_the_multiplicity():
    result = runner.invoke(
        main, ["tune", "--rho", "0.01", "--q", "10", "--epsilon", "0.01"]
    )
    assert result.exit_code == 0, result.output
    assert "multiplicity: 4" in result.stdout
    assert "raw bound: 3.754" in result.stdout
    assert "compression ratio: 2.5" in result.stdout


def test_tune_infeasible_target_exits_one():
    result = runner.invoke(
        main, ["tune", "--rho", "0.2", "--q", "32", "--epsilon", "1e-9"]
    )
    assert result.exit_code == 1
    assert "raw bound: 22313.89" in result.stdout


def test_tune_parameter_errors():
    assert runner.invoke(
        main, ["tune", "--rho", "0.0", "--q", "10", "--epsilon", "0.01"]
    ).exit_code == 2
    assert runner.invoke(
        main, ["tune", "--rho", "0.1", "--q", "10", "--epsilon", "2"]
    ).exit_code == 2
