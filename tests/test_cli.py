import json
import math
import sys
from importlib import resources

import jsonschema
import pytest

from relaydde import cli

import _expected as exp


def _schema(name):
    with resources.files("relaydde.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_preset(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--preset", "p1")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("orbit.json"))
    assert math.isclose(payload["z1"], exp.P1_Z1, abs_tol=1e-14)
    assert math.isclose(payload["T"], exp.P1_T, abs_tol=1e-14)


def test_orbit_raw_entry_matches_preset(capsys):
    code, out_preset, _ = run_cli(capsys, "orbit", "--preset", "p1")
    code2, out_raw, _ = run_cli(capsys, "orbit", "--gamma", "1", "--b-l", "1.4",
                                "--b-u", "0.2", "--theta", "1", "--tau-raw", "1")
    assert code == code2 == 0
    a, b = json.loads(out_preset), json.loads(out_raw)
    for key in a:
        # the raw route computes beta_L = -theta + b_L/gamma, an ulp off 0.4
        assert math.isclose(a[key], b[key], rel_tol=1e-14)


def test_classify_example(capsys):
    code, out, _ = run_cli(capsys, "classify", "--preset", "p1", "--amp", "0.2",
                           "--sigma", "0.4", "--delta", "0.1")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("classify.json"))
    assert payload["case"] == "RNRN"
    assert math.isclose(payload["T"], exp.P1_T_RNRN_AT_0P1, abs_tol=1e-12)
    assert math.isclose(payload["thresholds"]["delta1"], exp.P1_D1, abs_tol=1e-12)


def test_classify_deterministic(capsys):
    args = ("classify", "--preset", "p2", "--amp", "0.2", "--sigma", "0.4",
            "--delta", "2.2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_sequence_and_report(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--preset", "p1", "--amp", "0.2",
                           "--sigma", "0.4", "--grid", "256",
                           "--out", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("sweep_report.json"))
    assert payload["sequence"] == ["RNRN", "RNRP", "RPRP", "RPFP", "RPFN",
                                   "FPFN", "FNFN", "FNRN"]
    assert payload["monotonicity"]["passed"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "delta,case,T,xmin,xmax"
    assert len(lines) == 257
    cases = []
    for line in lines[1:]:
        c = line.split(",")[1]
        if not cases or cases[-1] != c:
            cases.append(c)
    assert cases == payload["sequence"]


def test_sweep_p2_sequence(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "p2", "--amp", "0.2",
                           "--sigma", "0.4", "--grid", "64")
    payload_lines = out.splitlines()
    # CSV then JSON on stdout: find the JSON start
    start = payload_lines.index("{")
    payload = json.loads("\n".join(payload_lines[start:]))
    assert payload["sequence"] == ["RNRP", "RPRP", "RPFP", "FPFP", "FPFN",
                                   "FNFN", "FNRN", "FNRP"]


def test_simulate_zeros(capsys, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", "--preset", "p1", "--history",
                           "const:1.0", "--horizon", "3", "--out", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("zeros.json"))
    assert math.isclose(payload["zeros"][0]["t"], exp.CONST1_FIRST_ZERO,
                        abs_tol=1e-12)
    header, *rows = csv_path.read_text().strip().splitlines()
    assert header == "t,x"
    assert len(rows) == 1001


def test_therapy_feasible(capsys):
    code, out, _ = run_cli(capsys, "therapy", "--preset", "p1", "--sigma", "0.05",
                           "--x-d", "-0.45")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("therapy.json"))
    assert payload["feasible"] is True
    assert math.isclose(payload["t_M"], exp.TH_TM, abs_tol=1e-12)
    assert math.isclose(payload["a_d"], exp.TH_AD, abs_tol=1e-11)
    assert math.isclose(payload["achieved_min"], -0.45, abs_tol=1e-9)
    assert payload["achieved_period"] < exp.P1_T


def test_therapy_infeasible_exit_code(capsys):
    # huge sigma makes the medication time negative
    code, out, _ = run_cli(capsys, "therapy", "--preset", "p1", "--sigma", "0.9",
                           "--x-d", "-0.45")
    assert code == 3
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["achieved_min"] is None


def test_threelevel(capsys):
    code, out, _ = run_cli(capsys, "threelevel", "--tau", "5", "--beta-l", "0.4",
                           "--beta-u", "0.8", "--beta-star", "2.0",
                           "--amp", "0.6", "--find-tau0")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("threelevel.json"))
    assert math.isclose(payload["x_z1_2tau"], exp.TL_X_Z1_2TAU, abs_tol=1e-12)
    assert payload["undershoot"] is True
    assert math.isclose(payload["tau0"], exp.TL_TAU0_BSTAR2, rel_tol=1e-13)


def test_verify_preset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "p1",
                           "--oracle-step", "1e-3")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, _schema("verify.json"))
    assert payload["passed"] is True
    assert payload["runs"][0]["max_abs_dev"] <= 1e-5


def test_validation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "orbit", "--tau", "1", "--beta-l", "0",
                           "--beta-u", "0.8")
    assert code == 2
    assert "beta_l" in err


def test_verify_rejects_a_bad_step_or_tolerance(capsys):
    for flag, value, clause in (("--oracle-step", "0", "oracle_step"),
                                ("--oracle-step", "-0.001", "oracle_step"),
                                ("--oracle-step", "nan", "oracle_step"),
                                ("--tolerance", "nan", "verify_tolerance"),
                                ("--tolerance", "-1", "verify_tolerance")):
        code, out, err = run_cli(capsys, "verify", "--preset", "p1", flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {clause}:") and err.count("\n") == 1, err


def test_missing_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "orbit")
    assert code == 2


def test_simulate_format_json_arcs(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--preset", "p1", "--history",
                           "const:1.0", "--horizon", "3", "--format", "json")
    assert code == 0
    # stdout carries the arc chain then the zeros payload
    arcs_line, rest = out.split("\n", 1)
    from relaydde import Trajectory, evolve, History, ModelParams
    arcs = Trajectory.arcs_from_json(arcs_line)
    traj = evolve(ModelParams(1.0, 0.4, 0.8), History.constant(1.0, 1.0), 3.0)
    assert arcs == traj.arcs            # exact round-trip

def test_sweep_format_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--preset", "p1", "--amp", "0.2",
                           "--sigma", "0.4", "--grid", "16", "--format", "json")
    assert code == 0
    head, rest = out.split("\n{", 1)
    rows = json.loads(head)
    assert len(rows) == 16 and rows[0]["case"] == "RNRN"
    payload = json.loads("{" + rest)
    assert "T_left_limit" in payload["markers"]


_SEQUENCE = [
    ("sweep", "--preset", "p1", "--amp", "0.2"),          # argparse error: no --sigma
    ("sweep", "--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--grid", "64"),
    ("classify", "--preset", "p2", "--amp", "0.2", "--sigma", "0.4", "--delta", "3.0"),
    ("simulate", "--preset", "p1", "--horizon", "9", "--samples", "51",
     "--amp", "0.2", "--delta", "1.0", "--sigma", "0.4"),
    ("simulate", "--preset", "p1", "--horizon", "9", "--samples", "51"),
]


def test_reused_parser_matches_fresh_parser(capsys, monkeypatch):
    # one parser serves every main() call; no value may leak between calls
    fresh = []
    for argv in _SEQUENCE:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0]
    assert fresh[3][1] != fresh[4][1]                   # the pulse shows
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in _SEQUENCE] == fresh
    assert len(builds) == 1


_CLASSIFY = [
    ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--delta", "0.1"),
    ("--preset", "p2", "--amp", "0.2", "--sigma", "0.4", "--delta", "3.0"),
    ("--preset", "p1", "--amp", "1.2", "--sigma", "0.4", "--delta", "2.5", "--relaxed"),
    ("--preset", "p2", "--amp", "0.2", "--sigma", "0.4", "--delta", "1.0", "--relaxed"),
    ("--preset", "p1", "--amp", "0.9", "--sigma", "0.4", "--delta", "0.1"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "1.5", "--delta", "0.1"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--delta", "-1"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--delta", "100", "--relaxed"),
    ("--tau", "1", "--beta-l", "-0.4", "--beta-u", "0.8", "--amp", "0.2",
     "--sigma", "0.4", "--delta", "0.1"),
]


def test_classify_builds_one_orbit(capsys, monkeypatch):
    """classify prints what thresholds() and the response functions give,
    errors included, from one orbit."""
    import relaydde
    from conftest import count_calls
    from relaydde import (PulseSpec, RelayDDEError, response_closed_form,
                          response_simulated, thresholds)
    calls = {"periodic_solution": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    codes = []
    for argv in _CLASSIFY:
        args = cli._parser().parse_args(["classify", *argv])
        try:
            params = cli._params_from(args)
            pulse = PulseSpec(args.amp, args.delta, args.sigma, relaxed=args.relaxed)
            th = thresholds(params, args.amp, args.sigma)
            respond = response_simulated if args.relaxed else response_closed_form
            payload = respond(params, pulse).to_dict(args.delta)
            payload["thresholds"] = {"delta1": th.delta1, "delta1_hat": th.delta1_hat,
                                     "delta2": th.delta2, "delta_bar": th.delta_bar}
            want = (0, cli._dump_json(payload) + "\n", "")
        except RelayDDEError as exc:
            want = (2, "", f"error: {exc}\n")
        calls["periodic_solution"] = 0
        assert run_cli(capsys, "classify", *argv) == want, argv
        n = calls["periodic_solution"]
        assert (n == 1 if want[0] == 0 else n <= 1), argv
        codes.append(want[0])
    assert codes == [0, 0, 0, 0, 2, 2, 2, 2, 2]


_SWEEP = [
    ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--grid", "64"),
    ("--preset", "p2", "--amp", "0.2", "--sigma", "0.4", "--grid", "64", "--format", "json"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "1", "--grid", "32"),
    ("--preset", "p2", "--amp", "0.2", "--sigma", "1", "--grid", "32"),
    ("--tau", "2", "--beta-l", "0.3", "--beta-u", "1.1", "--amp", "0.5",
     "--sigma", "0.7", "--grid", "48"),
    ("--preset", "p1", "--amp", "0.9", "--sigma", "0.4", "--grid", "64"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "1.5", "--grid", "64"),
    ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4", "--grid", "8"),
]


def test_sweep_builds_one_orbit(capsys, monkeypatch):
    """sweep prints what cycle_length_map, case_sequence and
    monotonicity_report give, errors included, from one orbit."""
    import relaydde
    from conftest import count_calls
    from relaydde import (RelayDDEError, case_sequence, cycle_length_map,
                          monotonicity_report)
    calls = {"periodic_solution": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    codes = []
    for argv in _SWEEP:
        args = cli._parser().parse_args(["sweep", *argv])
        try:
            table = cycle_length_map(cli._params_from(args), args.amp, args.sigma, args.grid)
            seq = case_sequence(table.params, args.amp, args.sigma)
            if args.format == "json":
                rows = [{"delta": r.delta, "case": r.case, "T": r.T,
                         "xmin": r.x_min, "xmax": r.x_max} for r in table.rows]
                text = cli._dump_json(rows)
            else:
                text = table.csv_text()
            payload = {
                "cases": [{"case": iv.code.value, "interval": iv.label()} for iv in seq],
                "sequence": [iv.code.value for iv in seq],
                "markers": table.markers,
                "monotonicity": monotonicity_report(table).to_dict(),
            }
            want = (0, text + "\n" + cli._dump_json(payload) + "\n", "")
        except RelayDDEError as exc:
            want = (2, "", f"error: {exc}\n")
        calls["periodic_solution"] = 0
        assert run_cli(capsys, "sweep", *argv) == want, argv
        n = calls["periodic_solution"]
        assert (n == 1 if want[0] == 0 else n <= 1), argv
        codes.append(want[0])
    assert codes == [0, 0, 0, 0, 0, 2, 2, 2]


def test_dump_json_floats_round_trip():
    import numpy as np
    xs = [5e-324, -5e-324, -0.0, 0.0, 0.1, 1 / 3, 1e308, 1.7976931348623157e308,
          2.2250738585072014e-308, 123456789.12345678, -2.5e-17]
    text = cli._dump_json({"x": xs, "np": [np.float64(x) for x in xs],
                           "special": [math.inf, -math.inf, math.nan]})
    assert text == json.dumps({"np": xs, "special": ["inf", "-inf", "nan"], "x": xs},
                              indent=2, sort_keys=True)
    back = json.loads(text)
    assert [x.hex() for x in back["x"]] == [x.hex() for x in back["np"]] \
        == [x.hex() for x in xs]


def _fstring_csv(traj, n):
    """The trajectory CSV as the per-value f-string loop wrote it."""
    import numpy as np
    ts = np.linspace(-traj.params.tau, traj.horizon, n)
    rows = zip(ts.tolist(), traj.sample(ts).tolist())
    return "\n".join(["t,x"] + [f"{t:.17g},{x:.17g}" for t, x in rows])


def test_simulate_csv_rows(capsys, tmp_path):
    path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "simulate", "--preset", "p1", "--horizon", "2",
                         "--samples", "11", "--out", str(path))
    assert code == 0
    header, *rows = path.read_text().splitlines()
    assert header == "t,x" and len(rows) == 11
    first, last = [tuple(map(float, r.split(","))) for r in (rows[0], rows[-1])]
    assert first[0] == -1.0 and last[0] == 2.0
    assert math.isclose(first[1], 1.0, abs_tol=1e-12)


def test_simulate_csv_bytes_equal_per_value_formatting(capsys, tmp_path):
    from relaydde import evolve
    params = cli.PRESETS["p1"]
    pulse = ("--amp", "0.2", "--delta", "1.0", "--sigma", "0.4")
    for spec in ("const:1.0", "const:-0.3", "orbit", "premax"):
        hist = cli._history_from(spec, params)
        for n, extra in ((0, ()), (1, ()), (11, pulse), (20_001, ())):
            path = tmp_path / f"{n}.csv"
            argv = ("simulate", "--preset", "p1", "--history", spec, "--horizon", "30",
                    "--samples", str(n), "--out", str(path), *extra)
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            window = cli.PulseWindow(0.2, 1.0, 1.4) if extra else None
            traj = evolve(params, hist, 30.0, pulse=window)
            assert path.read_text() == _fstring_csv(traj, n) + "\n", argv
            zeros = {"zeros": [{"t": z.t, "up": z.up} for z in traj.zeros]}
            assert out == cli._dump_json(zeros) + "\n", argv


def test_therapy_trajectory_bytes_equal_per_value_formatting(capsys, tmp_path):
    from relaydde import TherapyInput, apply_plan, plan
    params = cli.PRESETS["p1"]
    inp = TherapyInput(params=params, sigma=0.05, x_d=-0.45,
                       history=cli._history_from("premax", params))
    treated = apply_plan(inp, plan(inp)).trajectory
    path = tmp_path / "treated.csv"
    for n in (0, 1, 1001, 20_001):
        code, _, _ = run_cli(capsys, "therapy", "--preset", "p1", "--sigma", "0.05",
                             "--x-d", "-0.45", "--samples", str(n),
                             "--trajectory-out", str(path))
        assert code == 0
        assert path.read_text() == _fstring_csv(treated, n) + "\n", n


def test_negative_samples_and_infinite_horizon_exit_code(capsys, tmp_path):
    path = tmp_path / "treated.csv"
    for argv, clause in (
            (("simulate", "--preset", "p1", "--horizon", "5", "--samples", "-1"),
             "samples_nonnegative"),
            (("therapy", "--preset", "p1", "--sigma", "0.05", "--x-d", "-0.45",
              "--samples", "-1", "--trajectory-out", str(path)), "samples_nonnegative"),
            (("simulate", "--preset", "p1", "--horizon", "inf"), "horizon_finite")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {clause}: ") and err.count("\n") == 1, err
    assert not path.exists()


def test_each_command_builds_its_orbits_once(capsys, monkeypatch):
    """therapy builds the premax history's orbit and the TherapyInput's,
    threelevel only the ThreeLevelParams'; regime() runs once per orbit
    build, plus once in verify, which chooses its horizon with it."""
    import relaydde
    from conftest import count_calls
    calls = {"periodic_solution": 0, "regime": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    count_calls(monkeypatch, relaydde.params, "regime", calls)
    for argv, orbits, verify in (
            (("therapy", "--preset", "p1", "--sigma", "0.05", "--x-d", "-0.45"), 2, 0),
            (("therapy", "--preset", "p2", "--sigma", "0.3", "--x-d", "-0.2",
              "--history", "const:0.5"), 1, 0),
            (("threelevel", "--tau", "5", "--beta-l", "0.4", "--beta-u", "0.8",
              "--beta-star", "2", "--amp", "0.6", "--find-tau0"), 1, 0),
            (("classify", "--preset", "p1", "--amp", "0.2", "--sigma", "0.4",
              "--delta", "0.1"), 1, 0),
            (("sweep", "--preset", "p1", "--amp", "0.2", "--sigma", "0.4",
              "--grid", "16"), 1, 0),
            (("verify", "--preset", "p1", "--oracle-step", "1e-3"), 1, 1)):
        calls.update(periodic_solution=0, regime=0)
        code, _, err = run_cli(capsys, *argv)
        assert code in (0, 3) and err == "", argv
        assert calls == {"periodic_solution": orbits, "regime": orbits + verify}, argv


def test_malformed_const_history_exit_code(capsys):
    for spec in ("const:abc", "const:", "const:1.0x"):
        code, out, err = run_cli(capsys, "simulate", "--preset", "p1", "--history", spec,
                                 "--horizon", "5")
        assert (code, out) == (2, ""), spec
        assert err == f"error: unknown history spec {spec!r} " \
                      "(use const:<value>, orbit, or premax)\n"


@pytest.mark.parametrize("argv,clause", [
    (("--preset", "p1", "--amp", "nan", "--delta", "0.5", "--sigma", "0.4"), "pulse_amp_finite"),
    (("--preset", "p1", "--amp", "inf", "--delta", "0.5", "--sigma", "0.4"), "pulse_amp_finite"),
    (("--preset", "p1", "--history", "const:nan"), "history_finite"),
    (("--tau", "1", "--beta-l", "inf", "--beta-u", "0.8"), "beta_finite"),
])
def test_non_finite_simulate_input_exits_in_a_subprocess(argv, clause):
    """Each flag set once sent the engine into an endless loop; run as a
    process with a timeout, a regression fails here instead of stalling
    the suite."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import relaydde
    path = [str(Path(relaydde.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    res = subprocess.run([sys.executable, "-m", "relaydde.cli", "simulate", *argv,
                          "--horizon", "5"],
                         capture_output=True, text=True, timeout=15,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.startswith(f"error: {clause}: ") and res.stderr.count("\n") == 1, \
        res.stderr


def test_standing_hypothesis_fails_before_any_orbit(capsys, monkeypatch):
    """classify without --relaxed and sweep reject a >= beta_U with the
    library classify()'s amp_standing line and build no orbit, also outside
    the oscillatory regime."""
    import relaydde
    from conftest import count_calls
    from relaydde import ModelParams, PulseSpec, ValidationError, classify
    calls = {"periodic_solution": 0}
    count_calls(monkeypatch, relaydde.orbit, "periodic_solution", calls)
    for beta_l in ("0.4", "-0.4"):
        params = ("--tau", "1", "--beta-l", beta_l, "--beta-u", "0.8")
        with pytest.raises(ValidationError) as exc:
            classify(ModelParams(1.0, float(beta_l), 0.8), PulseSpec(0.9, 0.1, 0.4))
        assert exc.value.clause == "amp_standing"
        for argv in (("classify", *params, "--amp", "0.9", "--sigma", "0.4", "--delta", "0.1"),
                     ("sweep", *params, "--amp", "0.9", "--sigma", "0.4", "--grid", "64")):
            calls["periodic_solution"] = 0
            assert run_cli(capsys, *argv) == (2, "", f"error: {exc.value}\n"), argv
            assert calls["periodic_solution"] == 0, argv


def test_only_simulated_runs_build_the_orbit_history(capsys, monkeypatch):
    from relaydde import PeriodicOrbit
    built = []
    history_min_phase = PeriodicOrbit.history_min_phase
    monkeypatch.setattr(PeriodicOrbit, "history_min_phase",
                        lambda self: built.append(1) or history_min_phase(self))
    pulse = ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4")
    for argv, n in ((("classify", *pulse, "--delta", "0.1"), 0),
                    (("sweep", *pulse, "--grid", "64"), 0),
                    (("classify", *pulse, "--delta", "0.1", "--relaxed"), 1)):
        built.clear()
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert len(built) == n, argv


# the partition PulseContext built eagerly, before it became a property
_PARTITION_P1 = [
    ("RNRN", "0x0.0p+0", "0x1.0f01f7421ddf8p-2", True, False),
    ("RNRP", "0x1.0f01f7421ddf8p-2", "0x1.a26d3c71e478ap-1", True, False),
    ("RPRP", "0x1.a26d3c71e478ap-1", "0x1.6ad037d28bd5ep+0", True, True),
    ("RPFP", "0x1.6ad037d28bd5ep+0", "0x1.c7244f3bf5a47p+0", False, True),
    ("RPFN", "0x1.c7244f3bf5a47p+0", "0x1.d1369e38f23c5p+0", False, False),
    ("FPFN", "0x1.d1369e38f23c5p+0", "0x1.0bc2cc8837839p+1", True, True),
    ("FNFN", "0x1.0bc2cc8837839p+1", "0x1.588f995504506p+1", False, False),
    ("FNRN", "0x1.588f995504506p+1", "0x1.8bc2cc8837839p+1", True, False),
]
_PARTITION_P2 = [
    ("RNRP", "0x0.0p+0", "0x1.3bc6bbad2b01ap-2", True, False),
    ("RPRP", "0x1.3bc6bbad2b01ap-2", "0x1.d1169109c8b3fp-1", True, True),
    ("RPFP", "0x1.d1169109c8b3fp-1", "0x1.4ef1aeeb4ac06p+0", False, False),
    ("FPFP", "0x1.4ef1aeeb4ac06p+0", "0x1.bd418b620d883p+0", True, True),
    ("FPFN", "0x1.bd418b620d883p+0", "0x1.06d16a9b43757p+1", False, True),
    ("FNFN", "0x1.06d16a9b43757p+1", "0x1.539e376810424p+1", False, False),
    ("FNRN", "0x1.539e376810424p+1", "0x1.753304d6333e7p+1", True, False),
    ("FNRP", "0x1.753304d6333e7p+1", "0x1.86d16a9b43757p+1", True, False),
]


def test_classify_builds_no_case_interval(capsys, monkeypatch):
    """classify reads only the partition's cut points; the partition,
    built on each read, still gives the intervals of the eager build."""
    from relaydde import PulseContext, pulse
    built = []
    case_interval = pulse.CaseInterval
    monkeypatch.setattr(pulse, "CaseInterval",
                        lambda *args: built.append(1) or case_interval(*args))
    for preset in ("p1", "p2"):
        for relaxed in ((), ("--relaxed",)):
            argv = ("classify", "--preset", preset, "--amp", "0.2", "--sigma", "0.4",
                    "--delta", "1.0", *relaxed)
            assert run_cli(capsys, *argv)[0] == 0, argv
    assert built == []
    for preset, want in (("p1", _PARTITION_P1), ("p2", _PARTITION_P2)):
        got = PulseContext(cli.PRESETS[preset], 0.2, 0.4).partition
        assert [(iv.code.value, iv.lo.hex(), iv.hi.hex(), iv.lo_closed, iv.hi_closed)
                for iv in got] == want, preset
    assert len(built) == 16


_PULSE = ("--preset", "p1", "--amp", "0.2", "--sigma", "0.4")
_DISPATCH = [
    (), ("-h",), ("bogus",), ("bogus", "--preset", "p1"), ("--preset", "p1"),
    *[(command, "-h") for command in ("orbit", "simulate", "classify", "sweep", "therapy",
                                      "threelevel", "verify")],
    ("classify", "--help"), ("orbit", "--bogus", "-h"),
    ("classify", *_PULSE),                                     # missing --delta
    ("classify", *_PULSE, "--delta", "0.1", "--bogus"),        # unknown option
    ("classify", *_PULSE, "--delta", "0.1", "extra"),          # extra positional
    ("classify", "--pre", "p1", "--am", "0.2", "--sig", "0.4", "--del", "0.1"),
    ("orbit", "--t", "1"),                                     # ambiguous abbreviation
    ("classify", "--preset=p1", "--amp=0.2", "--sigma=0.4", "--delta=0.1"),
    ("classify", *_PULSE, "--delta", "0.1", "--", "extra"),
    ("orbit", "--", "--preset", "p1"), ("orbit", "--preset", "p1", "--"),
    ("sweep", *_PULSE, "--format", "xml"), ("classify", *_PULSE, "--delta", "x"),
    ("orbit", "--preset", "p1"), ("classify", *_PULSE, "--delta", "-1"),
    ("sweep", *_PULSE, "--grid", "16", "--format", "json"),
    ("therapy", "--preset", "p2", "--sigma", "0.3", "--x-d", "-5"),
]


def _parse_then_run(argv):
    """What main() did before it parsed with the subcommand's own parser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except cli.PlanInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except cli.RelayDDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def test_dispatch_matches_the_full_parser(capsys):
    """main() parses with the subcommand's parser and leaves errors to the
    main parser: exit code, stdout and stderr are argparse's own."""
    for argv in _DISPATCH:
        want = _parse_then_run(list(argv)), *capsys.readouterr()
        assert run_cli(capsys, *argv) == want, argv
