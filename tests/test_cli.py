import json

import pytest

from drsplit import EXP1, EXP2, build_instance
from drsplit.cli import build_parser, main


def test_rates_command(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    code = main(["rates", "--s", "2.0", "--sigma", "8.0", "--rho", "0.5", "--steps", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "alpha,main_rate,shift_rate"
    assert len(lines) == 11


def test_solve_command(tmp_path, capsys):
    instance_path = tmp_path / "instance.json"
    build_instance(EXP2, seed=4).save(instance_path)
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
    assert summary["config"]["variant"] == "dr-main-fg"
    assert summary["converged"]
    assert trace_path.read_text().startswith("iter,cost,step_norm,fp_residual,dist_to_ref")


def test_solve_rejects_gate_violation(tmp_path):
    instance_path = tmp_path / "instance.json"
    inst = build_instance(EXP2, seed=4)
    inst.save(instance_path)
    from drsplit import StepSizeError

    with pytest.raises(StepSizeError):
        main(
            [
                "solve",
                "--instance", str(instance_path),
                "--variant", "dr-shift-fg",
                "--alpha", str(2.0 / inst.penalty.rho),
            ]
        )


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
    ],
)
def test_out_of_range_count_is_a_usage_error(argv, flag, lowest, capsys):
    parser = build_parser()
    parser.parse_args(argv + [flag, str(lowest)])
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(lowest - 1)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= {lowest}, got {lowest - 1}" in capsys.readouterr().err
