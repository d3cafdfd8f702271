import dataclasses
import json

import numpy as np
import pytest

from drsplit import EXP1, EXP2, VARIANTS, FirmPenalty, Problem, build_instance, cli
from drsplit.cli import build_parser, main
from drsplit.solver import default_alpha


def test_rates_command(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = main(["rates", "--s", "2.0", "--sigma", "8.0", "--rho", "0.5", "--steps", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,main_rate,shift_rate"
    assert len(lines) == 11


def test_solve_command(tmp_path, capsys):
    instance_path = tmp_path / "instance.json"
    instance = build_instance(EXP2, seed=4)
    instance.save(instance_path)
    trace_path = tmp_path / "trace.csv"
    code = main(
        [
            "solve",
            "--instance", str(instance_path),
            "--variant", "dr-main-fg",
            "--iters", "400",
            "--tol", "1e-12",
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    # without --alpha the summary names the default step the run took
    alpha = default_alpha(instance.problem(), "dr-main-fg")
    config = {"variant": "dr-main-fg", "alpha": alpha, "relaxation": 0.5, "max_iters": 400, "tol": 1e-12}
    assert list(summary["config"].items()) == list(config.items())
    assert summary["converged"]
    assert trace_path.read_text().startswith("iter,cost,step_norm,fp_residual,dist_to_ref")


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_audits_only_the_trace_it_writes(variant, tmp_path, capsys, monkeypatch):
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
    argv = ["solve", "--instance", str(instance_path), "--variant", variant, "--iters", "300", "--tol", "1e-9"]
    residuals = []
    residual = Problem.fixed_point_residual
    monkeypatch.setattr(Problem, "fixed_point_residual", lambda *a: residuals.append(1) or residual(*a))

    assert main(argv) == 0
    bare = capsys.readouterr().out
    assert not residuals
    assert main([*argv, "--trace", str(tmp_path / "trace.csv")]) == 0
    assert residuals
    assert capsys.readouterr().out == bare


def test_solve_reports_divergence_in_one_line(tmp_path, capsys):
    instance = build_instance(EXP2, seed=4)
    y = instance.y.copy()
    y[5] = float("nan")
    path = tmp_path / "nan.json"
    dataclasses.replace(instance, y=y).save(path)
    assert main(["solve", "--instance", str(path), "--variant", "dr-main-fg"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "drsplit solve: non-finite iterate at iteration 1 of dr-main-fg\n"
    assert captured.out == ""


# (case, how to write the file from the saved instance dict, the error's cause)
BAD_INSTANCES = [
    ("missing-file", None, "No such file or directory"),
    ("invalid-json", lambda d: json.dumps(d)[:-1], "Expecting ',' delimiter"),
    ("missing-key", lambda d: json.dumps({k: v for k, v in d.items() if k != "noise_std"}), "missing key 'noise_std'"),
    ("tau-not-positive", lambda d: json.dumps({**d, "penalty": {**d["penalty"], "tau": 0.0}}), "tau must be positive"),
    (
        "penalty-not-an-object",
        lambda d: json.dumps({**d, "penalty": [1, 2]}),
        "key 'penalty': list indices must be integers or slices, not str",
    ),
    ("filter-not-a-list", lambda d: json.dumps({**d, "filter": 5}), "key 'filter': 'int' object is not iterable"),
    (
        "y-of-wrong-length",
        lambda d: json.dumps({**d, "y": d["y"][:-3]}),
        "dimension mismatch: operator has 120 rows, y has 117",
    ),
    (
        "y-not-a-vector",
        lambda d: json.dumps({**d, "y": [d["y"], d["y"]]}),
        "key 'y': expected a list of numbers, got shape (2, 120)",
    ),
    (
        "signal-not-a-vector",
        lambda d: json.dumps({**d, "signal": [d["signal"]]}),
        "key 'signal': expected a list of numbers, got shape (1, 90)",
    ),
    # A plain int() would read these seeds as 1, 7 and 1.
    ("seed-a-float", lambda d: json.dumps({**d, "seed": 1.5}), "key 'seed': expected an integer, got 1.5"),
    ("seed-a-string", lambda d: json.dumps({**d, "seed": "7"}), "key 'seed': expected an integer, got '7'"),
    ("seed-a-bool", lambda d: json.dumps({**d, "seed": True}), "key 'seed': expected an integer, got True"),
]


@pytest.mark.parametrize("write, cause", [case[1:] for case in BAD_INSTANCES], ids=[case[0] for case in BAD_INSTANCES])
def test_solve_reports_a_malformed_instance_as_a_usage_error(write, cause, tmp_path, capsys):
    path = tmp_path / "instance.json"
    if write is not None:
        path.write_text(write(build_instance(EXP2, seed=4).to_json_dict()))
    with pytest.raises(SystemExit) as stop:
        main(["solve", "--instance", str(path), "--variant", "dr-main-fg"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: drsplit ")
    assert error.startswith(f"drsplit: error: --instance {path}: {cause}")


@pytest.mark.parametrize(
    "command, out",
    [
        (["solve", "--variant", "ista", "--iters", "20", "--trace"], "missing/t.csv"),
        (["rates", "--s", "1", "--sigma", "4", "--rho", "0.5", "--steps", "5", "--out"], "missing/r.csv"),
        (["exp2", "--seeds", "1", "--iters", "20", "--out-dir"], "file/out"),
    ],
    ids=["solve-trace", "rates-out", "exp2-out-dir"],
)
def test_unwritable_output_path_is_one_line(command, out, tmp_path, capsys):
    # exp2 makes missing directories, so its path runs through a regular file.
    (tmp_path / "file").write_text("")
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
    path = tmp_path / out
    extra = ["--instance", str(instance_path)] if command[0] == "solve" else []
    assert main([*command, str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"drsplit {command[0]}: ") and str(path) in err and err.count("\n") == 1


def test_solve_with_an_empty_trace_path_fails_in_one_line(tmp_path, capsys, monkeypatch):
    # The audit and the write follow one test, so an empty --trace fails as
    # an unwritable path does, before any output.
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--instance", str(instance_path), "--variant", "ista", "--iters", "20", "--trace", ""]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("drsplit solve: ") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json"]


def test_solve_rejects_gate_violation(tmp_path, capsys):
    instance_path = tmp_path / "instance.json"
    inst = build_instance(EXP2, seed=4)
    inst.save(instance_path)
    alpha = 2.0 / inst.penalty.rho

    with pytest.raises(SystemExit) as stop:
        main(["solve", "--instance", str(instance_path), "--variant", "dr-shift-fg", "--alpha", str(alpha)])
    assert stop.value.code == 2
    message = f"alpha = {alpha:.6g} violates the strict bound {1.0 / inst.penalty.rho:.6g} of dr-shift-fg"
    assert f"drsplit: error: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("variant", VARIANTS)
def test_solve_rejects_rho_above_sigma_in_one_line(variant, tmp_path, capsys):
    inst = build_instance(EXP2, seed=4)
    assert inst.operator.gram_extremes()[1] < 5.0
    instance_path = tmp_path / "instance.json"
    dataclasses.replace(inst, penalty=FirmPenalty(inst.penalty.tau, 5.0)).save(instance_path)

    with pytest.raises(SystemExit) as stop:
        main(["solve", "--instance", str(instance_path), "--variant", variant])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: drsplit ") and error.startswith("drsplit: error: ")
    if variant == "ista":
        assert "ista" in error


def test_solve_reports_no_memory_for_the_trace_in_one_line(tmp_path, capsys, monkeypatch):
    # run() allocates its trace columns at max_iters + 1 rows up front.  Only
    # the huge column fails, and it is never allocated for real, so the
    # outcome does not depend on how the host overcommits memory.
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
    empty = np.empty

    def empty_or_out_of_memory(shape, *args, **kwargs):
        if np.prod(shape) > 10**8:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty_or_out_of_memory)
    argv = ["solve", "--instance", str(instance_path), "--variant", "dr-main-fg", "--tol", "1e-9"]
    assert main([*argv, "--iters", "2000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "drsplit solve: Unable to allocate an array with shape (2000000001,)\n"
    assert main([*argv, "--iters", "2000"]) == 0


def test_solve_rejects_nonconvex_shift(tmp_path, capsys):
    inst = build_instance(EXP2, seed=4)
    s = inst.operator.gram_extremes()[0]
    instance_path = tmp_path / "instance.json"
    dataclasses.replace(inst, penalty=FirmPenalty(inst.penalty.tau, 2.0 * s)).save(instance_path)

    with pytest.raises(SystemExit) as stop:
        main(["solve", "--instance", str(instance_path), "--variant", "dr-shift-gf", "--alpha", str(0.1 / s)])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"drsplit: error: shift rho = {2.0 * s:.6g} exceeds the strong convexity s = {s:.6g}\n" in err


def test_solve_takes_a_convex_instance_at_rho_zero(tmp_path, capsys):
    # At rho = 0 the firm penalty is the soft threshold and the shift is 0,
    # so dr-shift-fg steps as dr-main-fg does, from the same default step.
    path = tmp_path / "instance.json"
    data = build_instance(EXP2, seed=4).to_json_dict()
    path.write_text(json.dumps({**data, "penalty": {**data["penalty"], "rho": 0}}))
    summaries = []
    for variant in ("dr-main-fg", "dr-shift-fg"):
        assert main(["solve", "--instance", str(path), "--variant", variant, "--tol", "1e-9"]) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    main_fg, shift_fg = summaries
    assert main_fg["converged"] and shift_fg["converged"]
    assert main_fg["iterations"] == shift_fg["iterations"]
    assert main_fg["final_x"] == shift_fg["final_x"]


def test_exp2_command_writes_report(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "exp2",
            "--seeds", "2",
            "--iters", "300",
            "--master-seed", "3",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert "median_iterations_to_threshold" in aggregate
    report = json.loads((out_dir / "report.json").read_text())
    assert report["spec"]["n_seeds"] == 2
    assert len(report["seeds"]) == 2


def test_exp2_refuses_a_used_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["exp2", "--seeds", "2", "--iters", "50", "--out-dir", str(out_dir)]) == 0
    before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["exp2", "--seeds", "1", "--iters", "50", "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"drsplit exp2: out_dir {out_dir} is not empty\n" and not captured.out
    assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


def test_certify_command_passes(capsys):
    code = main(["certify", "--pairs", "300", "--seed", "0"])
    captured = capsys.readouterr().out
    assert code == 0
    lines = [l for l in captured.strip().splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


@pytest.mark.parametrize("command, spec", [("exp1", EXP1), ("exp2", EXP2)])
def test_experiment_flag_defaults_come_from_the_spec(command, spec):
    args = vars(build_parser().parse_args([command]))
    for name in ("n_seeds", "alpha_fraction", "relaxation", "max_iters"):
        assert args[name] == getattr(spec, name)


RATES = ["rates", "--s", "2.0", "--sigma", "8.0", "--rho", "0.5", "--out", "rates.csv"]
SOLVE = ["solve", "--instance", "instance.json", "--variant", "ista"]


@pytest.mark.parametrize(
    "argv, flag, lowest",
    [
        (["certify"], "--pairs", 1),
        (RATES, "--steps", 1),
        (["exp1"], "--seeds", 0),
        (["exp2"], "--seeds", 0),
        (["exp1"], "--iters", 0),
        (["exp2"], "--iters", 0),
        (SOLVE, "--iters", 0),
        (["certify"], "--seed", 0),
        (["exp1"], "--master-seed", 0),
        (["exp2"], "--master-seed", 0),
    ],
)
def test_out_of_range_count_is_a_usage_error(argv, flag, lowest, capsys):
    parser = build_parser()
    parser.parse_args(argv + [flag, str(lowest)])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(lowest - 1)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= {lowest}, got {lowest - 1}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["exp1"], "--lambda"),
        (["exp2"], "--lambda"),
        (["exp1"], "--alpha-frac"),
        (["exp2"], "--alpha-frac"),
        (SOLVE, "--lambda"),
    ],
    ids=["exp1-lambda", "exp2-lambda", "exp1-alpha-frac", "exp2-alpha-frac", "solve-lambda"],
)
def test_fraction_outside_the_open_unit_interval_is_a_usage_error(argv, flag, capsys):
    parser = build_parser()
    for inside in ("1e-9", "0.999999"):
        parser.parse_args(argv + [flag, inside])
    for outside in ("0", "1", "1.5", "-0.5"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, outside])
        assert exc.value.code == 2
        assert f"argument {flag}: must lie in (0, 1), got {float(outside)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, rule, inside, outside",
    [
        (SOLVE, "--tol", ">= 0", "0", "-1"),
        (RATES, "--s", "> 0", "1e-9", "0"),
        (RATES, "--sigma", "> 0", "8", "0"),
        (RATES, "--alpha-max", "> 0", "1e-9", "-1"),
        (RATES, "--rho", ">= 0", "0", "-1"),
        (SOLVE, "--alpha", "> 0", "1e-9", "0"),
    ],
    ids=["solve-tol", "rates-s", "rates-sigma", "rates-alpha-max", "rates-rho", "solve-alpha"],
)
def test_out_of_range_real_is_a_usage_error(argv, flag, rule, inside, outside, capsys):
    build_parser().parse_args(argv + [flag, inside])
    for bad in (outside, "nan"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}: must be {rule}, got {float(bad)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(SOLVE, "--tol"), (RATES, "--s"), (RATES, "--sigma"), (RATES, "--alpha-max"), (RATES, "--rho"), (SOLVE, "--alpha")],
)
def test_infinite_real_is_a_usage_error(argv, flag, capsys):
    for bad in ("inf", "1e999"):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite, got inf" in capsys.readouterr().err


def test_rates_sigma_below_s_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    argv = ["rates", "--rho", "0.5", "--out", str(out)]
    assert main(argv + ["--s", "2", "--sigma", "2"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--s", "2", "--sigma", "1"])
    assert exc.value.code == 2
    assert "rates needs --sigma >= --s, got --sigma 1.0 and --s 2.0" in capsys.readouterr().err


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        for steps in ("2", "3", "4"):
            argv = ["rates", "--s", "2", "--sigma", "8", "--rho", "0.5", "--steps", steps, "--out", str(tmp_path / "r.csv")]
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def run_main(argv, capsys) -> tuple[object, str]:
    """main(argv)'s return value, or its SystemExit code, and its stdout."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize(
    "first, second",
    [
        (["solve", "--variant", "dr-main-fg", "--iters", "50", "--alpha", "0.5"], ["solve", "--variant", "dr-main-fg", "--iters", "50"]),
        (["exp2", "--seeds", "1", "--iters", "50"], ["exp2", "--seeds", "0"]),
        (["certify", "--seed", "-1"], ["certify", "--pairs", "50"]),
    ],
    ids=["solve-alpha-then-default", "exp2-one-seed-then-none", "usage-error-then-certify"],
)
def test_reused_parser_keeps_no_state_between_calls(first, second, tmp_path, capsys):
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
    first, second = ([*argv, "--instance", str(instance_path)] if argv[0] == "solve" else argv for argv in (first, second))

    cli._parser.cache_clear()
    expected = run_main(second, capsys)
    assert expected[0] == 0
    cli._parser.cache_clear()
    run_main(first, capsys)
    assert run_main(second, capsys) == expected
