import csv
import os
import re
import resource
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expmodel import (InvalidParameter, cli, default_schedule, generate, information, memory,
                      read_dataset_csv)
from expmodel.cli import N_SAMPLES, main
from expmodel.tables import ROW_BLOCK


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def samples_csv(tmp_path):
    out = tmp_path / "data"
    assert run("generate", "--sigma", "0.2", "--n", "200", "--seed", "1",
               "--out-dir", str(out)) == 0
    return out / "samples.csv"


def test_generate_writes_two_hundred_rows(samples_csv):
    ds = read_dataset_csv(samples_csv)
    assert len(ds) == 200
    assert ds.meta.seed == 1


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("generate", "--seed", "7", "--sigma", "0.2", "--out-dir", str(a)) == 0
    assert run("generate", "--seed", "7", "--sigma", "0.2", "--out-dir", str(b)) == 0
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()


def test_generate_noise_free_respects_the_map(tmp_path):
    assert run("generate", "--sigma", "0", "--n", "10", "--out-dir", str(tmp_path)) == 0
    ds = read_dataset_csv(tmp_path / "samples.csv")
    assert np.array_equal(ds.y, 1.0 - 2.0 * ds.x ** 2)


def test_generate_rejects_zero_samples(tmp_path, capsys):
    assert run("generate", "--sigma", "0.2", "--n", "0", "--out-dir", str(tmp_path)) == 2
    assert "InvalidParameter" in capsys.readouterr().err


def test_info_outputs_curve_and_summary(tmp_path, samples_csv):
    out = tmp_path / "info"
    assert run("info", "--basic", str(samples_csv), "--out-dir", str(out)) == 0
    curve_lines = (out / "info_curve.csv").read_text().splitlines()
    assert curve_lines[0] == "N,logN,I,R,C,K"
    assert len(curve_lines) == 17  # 16 schedule points
    summary_lines = (out / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "N_opt,I_inf,K_inf"
    assert len(summary_lines) == 2


def test_info_of_an_empty_dataset_fails_as_empty(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("i,x,y\n")
    assert run("info", "--basic", str(empty), "--sigma", "0.2", "--out-dir", str(tmp_path)) == 2
    assert "EmptyDataset" in capsys.readouterr().err
    # Under this package's comment the file keeps its provenance, whose
    # width stands in for --sigma, so it too fails as empty.
    empty.write_text("# seed=1 sigma=0.2 map=ulam prng=pcg64\ni,x,y\n")
    assert read_dataset_csv(empty).meta.sigma_noise == 0.2
    assert run("info", "--basic", str(empty), "--out-dir", str(tmp_path)) == 2
    assert "EmptyDataset" in capsys.readouterr().err


def test_info_sigma_defaults_to_dataset_metadata(tmp_path, samples_csv):
    out_meta = tmp_path / "m"
    out_flag = tmp_path / "f"
    assert run("info", "--basic", str(samples_csv), "--out-dir", str(out_meta)) == 0
    assert run("info", "--basic", str(samples_csv), "--sigma", "0.2",
               "--out-dir", str(out_flag)) == 0
    assert (out_meta / "summary.csv").read_bytes() == (out_flag / "summary.csv").read_bytes()


def test_info_single_sample_dataset(tmp_path):
    gen = tmp_path / "g"
    assert run("generate", "--sigma", "0.2", "--n", "1", "--out-dir", str(gen)) == 0
    out = tmp_path / "info1"
    assert run("info", "--basic", str(gen / "samples.csv"), "--out-dir", str(out)) == 0
    lines = (out / "info_curve.csv").read_text().splitlines()
    assert len(lines) == 2
    _, _, i_val, r_val, c_val, _ = lines[1].split(",")
    assert abs(float(i_val)) <= 1e-2
    assert abs(float(r_val)) <= 1e-2
    assert abs(float(c_val)) <= 1e-2


def test_info_rejects_coarse_grid(tmp_path, samples_csv, capsys):
    # A kernel wider than the grid's span (L = 2) degenerates H_u. At
    # sigma = 8.000004000002e-06 a step <= sigma/4 needs ceil(8L/sigma) + 1 =
    # 2 000 000 nodes per axis, a grid (96 TB) beyond any physical memory that
    # is refused before it is allocated, as is the 80 000 000 001^2 grid of
    # L = 1e150 and sigma = 1e140; at L = 1e300, 8L/sigma overflows.
    for flags in [("--sigma", "2.5"), ("--sigma", "8.000004000002e-06"),
                  ("--span-l", "1e150", "--sigma", "1e140"),
                  ("--span-l", "1e300", "--sigma", "1e-10")]:
        assert run("info", "--basic", str(samples_csv), *flags, "--out-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "InvalidGrid" in err and f"sigma={float(flags[-1])}" in err


@pytest.mark.parametrize("span_l, sigma", [("1e-300", "1e-301"), ("1e-160", "1e-161")],
                         ids=["zero", "inf"])
def test_info_rejects_sigma_whose_normalisation_is_not_finite(tmp_path, small_csv, capsys,
                                                              span_l, sigma):
    # sigma^2 underflows to 0 at the first width, and 1/(2 pi sigma^2)
    # overflows to inf at the second, which would write I = nan on every row.
    assert run("info", "--basic", small_csv, "--span-l", span_l, "--sigma", sigma,
               "--out-dir", str(tmp_path)) == 2
    assert "InvalidGrid" in capsys.readouterr().err


@pytest.mark.parametrize("span_l", ["0", "-1", "nan", "inf"])
def test_info_span_errors_name_the_span(tmp_path, small_csv, capsys, span_l):
    # --span-l is L in the command's help and in every other grid message;
    # the library keyword half_width is not what the user typed.
    assert run("info", "--basic", small_csv, "--span-l", span_l,
               "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "InvalidParameter: L must be" in err and "half_width" not in err


def test_info_on_a_large_span_stays_finite(tmp_path, small_csv):
    # The quadrature sums carry no factor of the squared step, which at
    # L = 1e154 would overflow them. The samples lie within 1e-153 sigma of
    # each other, so they act as one kernel, whose information is 0.
    assert run("info", "--basic", small_csv, "--span-l", "1e154", "--sigma", "1e153",
               "--out-dir", str(tmp_path)) == 0
    with open(tmp_path / "info_curve.csv", newline="") as fh:
        info = [float(row["I"]) for row in csv.DictReader(fh)]
    assert len(info) == len(default_schedule(20))
    assert all(np.isfinite(i) and abs(i) <= 1e-9 for i in info)


def test_info_rejects_grid_over_address_space_limit(tmp_path, monkeypatch, capsys):
    # The running sum, kernel rows and panel take at most 15 B per node and
    # 9 B per row. With 32 MiB already mapped, a 96 MiB soft RLIMIT_AS leaves
    # 64 MiB (67.1 MB): the 2287^2 grid that sigma = 0.007 sets (78.5 MB) and
    # the 2118^2 grid of sigma = 0.00756 (67.3 MB, below the limit itself)
    # are refused before allocation; the 257^2 floor at sigma = 0.2 still fits.
    limit, mapped = 96 << 20, 32 << 20
    real = resource.getrlimit
    monkeypatch.setattr(resource, "getrlimit", lambda which: (
        (limit, resource.RLIM_INFINITY) if which == resource.RLIMIT_AS else real(which)))
    monkeypatch.setattr(memory, "mapped_bytes", lambda: mapped)
    one = tmp_path / "one.csv"
    one.write_text("i,x,y\n1,0.1,0.2\n")
    args = ("info", "--basic", str(one), "--out-dir", str(tmp_path))
    for sigma, points in (("0.007", "2287"), ("0.00756", "2118")):
        assert run(*args, "--sigma", sigma) == 2
        err = capsys.readouterr().err
        assert "InvalidGrid" in err and str(limit - mapped) in err
        assert f"sigma={sigma}, L=2.0" in err and f"a {points}^2 grid" in err
    assert run(*args, "--sigma", "0.2") == 0


def test_mapped_bytes_reads_whole_pages(monkeypatch):
    if os.path.exists("/proc/self/statm"):
        mapped = memory.mapped_bytes()
        assert mapped > 0 and mapped % os.sysconf("SC_PAGE_SIZE") == 0

    def unreadable(*args, **kwargs):
        raise OSError("no statm")

    monkeypatch.setattr(memory, "open", unreadable, raising=False)
    assert memory.mapped_bytes() == 0


def test_info_rejects_bad_schedule(tmp_path, samples_csv, capsys):
    assert run("info", "--basic", str(samples_csv), "--schedule", "5,5,7",
               "--out-dir", str(tmp_path)) == 2
    assert _exit_code(["info", "--basic", str(samples_csv), "--schedule", "2,x",
                       "--out-dir", str(tmp_path)]) == 2
    assert "bad schedule" in capsys.readouterr().err


def test_info_requires_sigma_for_plain_csv(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_text("i,x,y\n1,0.0,1.0\n2,0.5,0.5\n")
    assert run("info", "--basic", str(plain), "--out-dir", str(tmp_path)) == 2
    assert "InvalidParameter" in capsys.readouterr().err


_PAST_A_BLOCK = ROW_BLOCK + 3


@pytest.mark.parametrize("bad, rows, messages", [
    ({1: "0.1"}, 2, ("row 1 of",)),
    ({1: "abc,0.2"}, 2, ("row 1 of", "could not convert string to float: 'abc'")),
    ({1: '"0.1",0.2'}, 2, ("row 1 of", "could not convert string to float: '\"0.1\"'")),
    ({_PAST_A_BLOCK: "0.1"}, 2 * _PAST_A_BLOCK, (f"row {_PAST_A_BLOCK} of", "has 2 fields")),
    ({_PAST_A_BLOCK: "0.1,abc"}, 2 * _PAST_A_BLOCK, (f"row {_PAST_A_BLOCK} of", "'abc'")),
    ({_PAST_A_BLOCK: "abc,0.2", _PAST_A_BLOCK + 2: "0.1"}, 2 * _PAST_A_BLOCK,
     (f"row {_PAST_A_BLOCK} of", "'abc'")),
    ({_PAST_A_BLOCK: "0.1,abc"}, _PAST_A_BLOCK + 2, (f"row {_PAST_A_BLOCK} of", "'abc'")),
], ids=["short_row", "non_float_field", "quoted_field", "short_row_past_a_block",
        "non_float_field_past_a_block", "first_of_two_bad_rows",
        "non_float_field_in_the_last_block"])
def test_info_rejects_malformed_row(tmp_path, capsys, bad, rows, messages):
    # Good rows around the bad ones in a file of the given number of rows.
    # numpy's tokenizer rejects the file at its first bad row, here also past
    # the writers' ROW_BLOCK; the row-by-row reread from the first data row
    # must name that row, before a second bad row and near the file's end.
    lines = [f"{k},{bad[k]}" if k in bad else f"{k},{0.01 * k!r},{-0.01 * k!r}"
             for k in range(1, rows + 1)]
    path = tmp_path / "bad.csv"
    path.write_text("i,x,y\n" + "\n".join(lines) + "\n")
    assert run("info", "--basic", str(path), "--sigma", "0.2", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "InvalidParameter" in err and all(m in err for m in messages)


def test_info_names_the_row_of_a_non_finite_value(tmp_path, capsys):
    rows = [f"{k},{0.01 * k!r},{-0.01 * k!r}" for k in range(1, 51)]
    rows[16] = "17,inf,0.5"
    bad = tmp_path / "bad.csv"
    bad.write_text("i,x,y\n" + "\n".join(rows) + "\n")
    assert run("info", "--basic", str(bad), "--sigma", "0.2", "--out-dir", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "InvalidParameter" in err and "row 17" in err and "inf" in err
    assert len(err) < 200


def test_info_reports_a_grid_that_sigma_refines(tmp_path, samples_csv, capsys):
    # The dataset's sigma = 0.2 keeps the 257 floor and prints nothing to
    # stderr. --sigma 0.03 needs ceil(8L/sigma) + 1 = 535 nodes per axis at
    # L = 2, which info reports in one line with the step 4/534 and the
    # workspace bound 8 (G^2 + (G // 2)(G + ceil(G/4)) + ceil(G/4) G); stdout
    # keeps its one summary line.
    assert run("info", "--basic", str(samples_csv), "--out-dir", str(tmp_path / "a")) == 0
    assert capsys.readouterr().err == ""
    assert run("info", "--basic", str(samples_csv), "--sigma", "0.03",
               "--out-dir", str(tmp_path / "b")) == 0
    out, err = capsys.readouterr()
    assert out.startswith("N_opt=") and out.count("\n") == 1
    assert err.count("\n") == 1 and err.startswith("info: sigma=0.03 sets G=535 ")
    assert f"step {4 / 534:.6g} " in err and f" {8 * (535 ** 2 + 267 * (535 + 134) + 134 * 535)} bytes" in err


def test_info_warns_of_samples_outside_the_span(tmp_path, samples_csv, capsys):
    # The samples lie within |x|, |y| < 1.7, inside the default L = 2.
    assert run("info", "--basic", str(samples_csv), "--out-dir", str(tmp_path / "a")) == 0
    assert "outside the span" not in capsys.readouterr().err
    assert run("info", "--basic", str(samples_csv), "--span-l", "0.5",
               "--out-dir", str(tmp_path / "b")) == 0
    assert "samples lie outside the span" in capsys.readouterr().err


def test_info_warns_only_of_samples_the_curve_reads(tmp_path, samples_csv, capsys):
    # Move the last sample far outside the span: a schedule that stops
    # before it does not read it, and the warning counts it only once read.
    lines = samples_csv.read_text().splitlines()
    i, _, *rest = lines[-1].split(",")
    lines[-1] = ",".join([i, "5.0", *rest])
    moved = tmp_path / "moved.csv"
    moved.write_text("\n".join(lines) + "\n")
    assert run("info", "--basic", str(moved), "--schedule", "1,32,199",
               "--out-dir", str(tmp_path / "a")) == 0
    assert "outside the span" not in capsys.readouterr().err
    assert run("info", "--basic", str(moved), "--schedule", "1,32,200",
               "--out-dir", str(tmp_path / "b")) == 0
    assert "warning: 1 samples lie outside the span" in capsys.readouterr().err


def test_predict_writes_four_columns(tmp_path, samples_csv):
    test = tmp_path / "t"
    assert run("generate", "--sigma", "0.2", "--seed", "42", "--out-dir", str(test)) == 0
    out = tmp_path / "pred"
    assert run("predict", "--basic", str(samples_csv), "--test",
               str(test / "samples.csv"), "--n", "50", "--out-dir", str(out)) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "x_t,y_t,y_p,err"
    assert len(lines) == 201
    x_t, y_t, y_p, err = map(float, lines[1].split(","))
    assert err == y_p - y_t


def test_predict_constant_targets(tmp_path):
    basic = tmp_path / "basic.csv"
    basic.write_text("i,x,y\n1,-1.0,0.7\n2,0.0,0.7\n3,1.0,0.7\n")
    test = tmp_path / "test.csv"
    test.write_text("i,x,y\n1,-0.4,0.0\n2,0.9,0.0\n")
    assert run("predict", "--basic", str(basic), "--test", str(test),
               "--sigma", "0.2", "--out-dir", str(tmp_path)) == 0
    rows = (tmp_path / "predictions.csv").read_text().splitlines()[1:]
    for row in rows:
        assert float(row.split(",")[2]) == pytest.approx(0.7, rel=1e-12)


def test_predict_empty_basic_fails(tmp_path, capsys):
    basic = tmp_path / "empty.csv"
    basic.write_text("i,x,y\n")
    test = tmp_path / "test.csv"
    test.write_text("i,x,y\n1,0.0,0.0\n2,1.0,1.0\n")
    code = run("predict", "--basic", str(basic), "--test", str(test),
               "--sigma", "0.2", "--out-dir", str(tmp_path))
    assert code == 2
    assert "EmptyDataset" in capsys.readouterr().err


def test_predict_accepts_kernel_wider_than_span(tmp_path):
    # The predictor reads no span, so sigma >= L is no error for it.
    basic = tmp_path / "basic.csv"
    basic.write_text("i,x,y\n1,-1.0,0.2\n2,1.0,0.6\n")
    assert run("predict", "--basic", str(basic), "--test", str(basic),
               "--sigma", "2.5", "--out-dir", str(tmp_path)) == 0


def test_quality_covers_three_seeds(tmp_path):
    out = tmp_path / "q"
    assert run("quality", "--sigma", "0.2", "--n", "200", "--seed", "1",
               "--schedule", "1,32,200", "--out-dir", str(out)) == 0
    lines = (out / "quality.csv").read_text().splitlines()
    assert lines[0] == "N,seed,Q,var_y,var_yp,cov,mse"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9
    assert sorted({r[1] for r in rows}) == ["1", "2", "3"]
    assert sum(1 for r in rows if r[0] == "200") == 3


def test_quality_requires_sigma(tmp_path, capsys):
    assert _exit_code(["quality", "--out-dir", str(tmp_path)]) == 2
    assert "the following arguments are required: --sigma" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, err", [
    (RuntimeError("boom"), 1, "internal error: RuntimeError: boom"),
    (InvalidParameter("bad"), 2, "InvalidParameter: bad"),
], ids=["internal", "input"])
def test_exit_code_tells_internal_from_input_failures(tmp_path, monkeypatch, capsys,
                                                     exc, code, err):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "quality_sweep", fail)
    assert main(["quality", "--sigma", "0.2", "--n", "10", "--out-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(err)


def test_reproduce_writes_its_artifacts(reproduced):
    # Their bytes are compared with a second run by criterion 6.
    for name in ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "report.txt"]:
        assert (reproduced / name).is_file()

    fig3_rows = (reproduced / "fig3.csv").read_text().splitlines()
    assert fig3_rows[0] == "sigma,seed,N,logN,I,R,C,K"
    assert {row.split(",")[0] for row in fig3_rows[1:]} == {"0.1", "0.4"}

    report = (reproduced / "report.txt").read_text()
    for token in ("I_inf", "K_inf", "N_opt", "Q(32)"):
        assert token in report

    fig4_header = (reproduced / "fig4.csv").read_text().splitlines()[0]
    assert fig4_header == "x_t,y_t,y_p,err"


def test_reproduce_schedule_holds_the_points_its_criteria_read():
    # Criterion 1 starts its last doubling at a point <= N // 2, criterion 4
    # reads N = 32 and the points N >= 50 of the default ladder.
    schedule = default_schedule(cli.N_SAMPLES)
    assert 32 in schedule
    assert any(n >= 50 for n in schedule)
    assert any(n <= cli.N_SAMPLES // 2 for n in schedule)


def test_fig2_rows_equal_info_curve(tmp_path, samples_csv, reproduced):
    # fig2.csv is the info_curve.csv table of each seed behind a seed column.
    assert run("info", "--basic", str(samples_csv), "--out-dir", str(tmp_path / "info")) == 0
    fig2 = (reproduced / "fig2.csv").read_bytes().splitlines(keepends=True)
    seed1 = [fig2[0]] + [row for row in fig2[1:] if row.startswith(b"1,")]
    stripped = b"".join(row.split(b",", 1)[1] for row in seed1)
    assert len(seed1) == 17
    assert stripped == (tmp_path / "info" / "info_curve.csv").read_bytes()


def _argmin_cost(path, keys):
    """N of the smallest cost (first of ties) per group of an info-curve table."""
    groups = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            groups.setdefault(tuple(float(row[k]) for k in keys), []).append(row)
    return {key: int(min(rows, key=lambda r: float(r["C"]))["N"]) for key, rows in groups.items()}


def test_report_matches_acceptance_and_figures(reproduced):
    # The report's verdicts are those of tests/test_acceptance.py on the same
    # seeds, and its N_opt values, read with the benchmark's patterns, are
    # the argmin of the cost column in fig2.csv and fig3.csv.
    report = (reproduced / "report.txt").read_text()
    verdicts = re.findall(r"^criterion (\d) .*  (PASS|FAIL)$", report, re.M)
    assert verdicts == [("1", "PASS"), ("2", "PASS"), ("3", "PASS"), ("4", "FAIL")]
    before_4 = report.split("criterion 4 ")[0].splitlines()
    assert all(line.endswith("  PASS") for line in before_4)
    n_opt = _argmin_cost(reproduced / "fig2.csv", ["seed"])
    n_opt = {(0.2, seed): n for (seed,), n in n_opt.items()}
    n_opt.update(_argmin_cost(reproduced / "fig3.csv", ["sigma", "seed"]))
    assert [int(v) for v in re.findall(r"N_opt = (\d+)", report)] == [n_opt[(0.2, s)] for s in (1, 2, 3)]
    mono = re.findall(r"N_opt non-increasing in sigma \((\d+), (\d+), (\d+)\)", report)
    assert [tuple(map(int, m)) for m in mono] == [
        tuple(n_opt[(sigma, s)] for sigma in (0.1, 0.2, 0.4)) for s in (1, 2, 3)]


def _child_env(**extra):
    """The environment of a child interpreter that imports the package under
    test, installed or not."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **extra}


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "expmodel", "generate", "--sigma", "0.2",
         "--n", "5", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert (tmp_path / "samples.csv").is_file()


def test_threads_env_does_not_change_output(tmp_path, samples_csv):
    # BLAS reads its thread count when numpy is imported, so each setting
    # needs its own interpreter; the two run side by side.
    procs = {
        threads: subprocess.Popen(
            [sys.executable, "-m", "expmodel", "info", "--basic", str(samples_csv),
             "--out-dir", str(tmp_path / threads)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
        )
        for threads in ("1", "2")
    }
    assert [proc.wait() for proc in procs.values()] == [0, 0]
    for name in ("info_curve.csv", "summary.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


_CSV_FIELD = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.text(alphabet=',"#=\r\n\t\x00 .-+e0123456789abcinxy', max_size=8),
)
_CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    st.builds(
        lambda comment, header, rows: comment + header + "\n" + "\n".join(map(",".join, rows)),
        st.sampled_from(["", "# seed=1 sigma=0.2 n=3\n", "# seed=x sigma=-1\n",
                         "# seed=1 sigma=1e400 n=1\n", "# seed=1 sigma=1e-300 n=2\n"]),
        st.sampled_from(["i,x,y", "i,x,y,x_o,y_o", "x,y", ""]),
        st.lists(st.lists(_CSV_FIELD, max_size=6), max_size=6),
    ).map(str.encode),
)


@settings(max_examples=40, deadline=None)
@given(content=_CSV_BYTES, sigma=st.sampled_from([(), ("--sigma", "0.2")]))
def test_info_exit_code_contract_on_arbitrary_csv(content, sigma):
    # Any input file gives success or a reported input error, never exit 1.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "basic.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        assert run("info", "--basic", path, *sigma, "--out-dir", tmp) in (0, 2)


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert run("generate", "--sigma", "0.2", "--n", "20", "--out-dir", str(out)) == 0
    return str(out / "samples.csv")


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        return exc.code


# Sizes are small or far beyond any memory, so a size the checks let through
# stays cheap; floats range over everything, nan, inf and subnormals included.
_COUNT = st.one_of(st.integers(-3, 40), st.integers(10 ** 13, 10 ** 40)).map(str)
_FLAGS = {
    "--n": st.one_of(_COUNT, st.sampled_from(["nan", "inf", "1.5", ""])),
    "--sigma": st.one_of(st.floats(0.01, 0.5), st.floats()).map(repr),
    "--span-l": st.one_of(st.floats(0.5, 4.0), st.floats()).map(repr),
    "--schedule": st.one_of(st.lists(_COUNT, max_size=4).map(",".join), st.just("1,nan")),
    "--seed": _COUNT,
}


# The flags each subcommand reads; --out-dir is read by all of them.
_READS = {
    "generate": {"--sigma", "--n", "--seed"},
    "info": {"--basic", "--sigma", "--span-l", "--schedule"},
    "predict": {"--basic", "--test", "--sigma", "--n"},
    "quality": {"--sigma", "--n", "--seed", "--schedule"},
    "reproduce": {"--seed"},
}
# No command reads --grid-points: info's grid follows --sigma and --span-l.
_ALL_FLAGS = set().union(*_READS.values()) | {"--grid-points"}
_UNREAD = sorted((cmd, flag) for cmd, reads in _READS.items() for flag in _ALL_FLAGS - reads)


@settings(max_examples=40, deadline=None)
@given(command_flags=st.sampled_from(["generate", "info", "predict", "quality"]).flatmap(
    lambda command: st.tuples(st.just(command), st.fixed_dictionaries(
        {}, optional={k: v for k, v in _FLAGS.items() if k in _READS[command]}))))
@example(command_flags=("generate", {"--sigma": "5.448323523428893e+307"}))
@example(command_flags=("quality", {"--sigma": "6.98567925784762e+152"}))
@example(command_flags=("generate", {"--sigma": "0.2", "--seed": "-1"}))
@example(command_flags=("info", {"--span-l": "1e-300", "--sigma": "1e-301"}))
@example(command_flags=("info", {"--sigma": "1e200"}))
@example(command_flags=("info", {"--span-l": "1e200", "--sigma": "1e199"}))
@example(command_flags=("info", {"--span-l": "1e300", "--sigma": "1e-10"}))
@example(command_flags=("info", {"--span-l": "1e150", "--sigma": "1e140"}))
@example(command_flags=("info", {"--span-l": "1e154", "--sigma": "1e153"}))
def test_flag_values_exit_with_documented_codes(small_csv, command_flags):
    command, flags = command_flags
    # Any flag value gives success or a reported input error, never exit 1.
    # The grid that --sigma and --span-l set is refused above 32 MiB (G > 1182),
    # so no drawn pair allocates a large one.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(information, "memory_limit", lambda: 32 << 20):
        argv = [command, *(f"{k}={v}" for k, v in flags.items()), "--out-dir", tmp]
        if command in ("info", "predict"):
            argv += ["--basic", small_csv]
        if command == "predict":
            argv += ["--test", small_csv]
        assert _exit_code(argv) in (0, 2)


@pytest.mark.parametrize("command", sorted(_READS))
def test_help_lists_only_the_flags_a_command_reads(capsys, command):
    assert _exit_code([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == _READS[command] | {"--out-dir", "--help"}


@pytest.mark.parametrize("command, flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
def test_unread_flag_exits_2(tmp_path, small_csv, reproduced, capsys, command, flag):
    # Without the unread flag each argv succeeds; for reproduce, the module's
    # default run shows that, so the full sweep is not run once per flag.
    base = {
        "generate": ["--sigma", "0.2", "--n", "5"],
        "info": ["--basic", small_csv],
        "predict": ["--basic", small_csv, "--test", small_csv],
        "quality": ["--sigma", "0.2", "--n", "10", "--schedule", "1,10"],
        "reproduce": ["--seed", "1"],
    }[command]
    value = {"--sigma": "0.1", "--n": "10", "--seed": "2", "--span-l": "2.0",
             "--grid-points": "257", "--schedule": "1,2", "--basic": small_csv,
             "--test": small_csv}[flag]
    assert _exit_code([command, *base, flag, value, "--out-dir", str(tmp_path)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    if command != "reproduce":
        assert _exit_code([command, *base, "--out-dir", str(tmp_path)]) == 0


_NEEDED = [(name, flag, tuple(other for other in needs if other != flag))
           for name, _, _, needs, _ in cli.COMMANDS for flag in needs]


@pytest.mark.parametrize("command, flag, others", _NEEDED,
                         ids=[f"{c}{f}" for c, f, _ in _NEEDED])
def test_missing_needed_flag_exits_2(tmp_path, small_csv, capsys, command, flag, others):
    # argparse refuses the run before the command reads or writes a file.
    values = {"--sigma": "0.2", "--basic": small_csv, "--test": small_csv}
    out = tmp_path / "out"
    argv = [command, *(arg for other in others for arg in (other, values[other]))]
    assert _exit_code([*argv, "--out-dir", str(out)]) == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_generates_each_dataset_once(tmp_path, monkeypatch):
    metas, sizes = [], []

    def counted(meta, n):
        metas.append((meta.seed, meta.sigma_noise))
        sizes.append(n)
        return generate(meta, n)

    monkeypatch.setattr(cli, "generate", counted)
    assert run("reproduce", "--seed", "1", "--out-dir", str(tmp_path)) == 0
    assert len(metas) == 10 and sizes == [N_SAMPLES] * 10
    assert set(metas) == {(seed, sigma) for seed in (1, 2, 3) for sigma in (0.1, 0.2, 0.4)} | {(1 + 7919, 0.2)}
