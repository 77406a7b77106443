import ast
import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import capture_pins
import fps
from fps import PumpConfig, flux_hb
from fps import cli
from fps.cli import (
    MAX_FLOAT_PATH_POINTS,
    MAX_SPECTRAL_POINTS,
    MAX_STEP_POINTS,
    METHOD_ORDER,
    PRESETS,
    load_scenario,
    main,
)

ALL_PRESETS = ("fig1a", "fig1b", "fig2", "fig3", "fig4a", "fig4b")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def data_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    assert "," in lines[0]  # column header
    return lines[0], [line.split(",") for line in lines[1:]]


def write_scenario(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_SCALAR = {
    "fiber": {"gamma_per_W_km": 3.0, "beta2_ps2_per_km": -20.0, "length_km": 0.1},
    "pump": {"p0x_W": 0.3},
    "grid": {"omega_min": -2.0, "omega_max": 2.0, "n_points": 40},
    "regime": "HB",
    "method": "first-order",
}


def test_presets_lists_all(capsys):
    rc, out, _ = run(capsys, "presets")
    assert rc == 0
    assert set(json.loads(out)) == set(ALL_PRESETS)


def test_presets_single_name(capsys):
    rc, out, _ = run(capsys, "presets", "--name", "fig2")
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["fig2"]
    assert payload["fig2"]["fiber.delta_beta1_ps_per_km"] == 200.0


def test_presets_unknown_name(capsys):
    rc, _, err = run(capsys, "presets", "--name", "fig9")
    assert rc == 2
    assert "unknown preset" in err


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_every_preset_validates(name):
    scenario, resolved = load_scenario(dict(PRESETS[name]))
    assert scenario.grid.omega_min == -scenario.grid.omega_max
    assert not np.any(scenario.grid.omegas == 0.0)  # even count skips Omega=0
    assert resolved == cli._preset(name)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_preset_states_no_default_and_lists_its_resolved_scenario(capsys, name):
    """A preset sets only what differs from _SCHEMA, and `presets` shows what it resolves to."""
    restated = [key for key, value in PRESETS[name].items() if value == cli._SCHEMA[key][0]]
    assert restated == []
    rc, out, _ = run(capsys, "presets", "--name", name)
    assert rc == 0
    assert json.loads(out) == {name: load_scenario(dict(PRESETS[name]))[1]}


def test_spectrum_header_and_row_count(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "fig2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# fps spectrum"
    assert lines[1] == "# preset = fig2"
    for key in cli._preset("fig2"):
        assert any(line.startswith(f"# {key} = ") for line in lines)
    assert any(line.startswith("# units = ") for line in lines)
    header, rows = data_rows(out)
    assert header == "omega_rad_per_ps,f_x,f_y,method,L_km"
    assert len(rows) == 600 * 3  # grid points x lengths
    assert rows[0][0] == "-15" and rows[0][3] == "first-order" and rows[0][4] == "0.1"
    assert {row[4] for row in rows} == {"0.1", "0.2", "0.3"}


def test_spectrum_values_round_trip(tmp_path, capsys):
    path = write_scenario(tmp_path, SMALL_SCALAR)
    rc, out, _ = run(capsys, "spectrum", "--scenario", path)
    assert rc == 0
    _, rows = data_rows(out)
    omegas = np.array([float(row[0]) for row in rows])
    f_x = np.array([float(row[1]) for row in rows])
    grid = np.linspace(-2.0, 2.0, 40)
    np.testing.assert_allclose(omegas, grid, rtol=1e-8)
    scenario, _ = load_scenario(
        {
            "fiber.gamma_per_W_km": 3.0,
            "fiber.beta2_ps2_per_km": -20.0,
            "fiber.length_km": 0.1,
            "pump.p0x_W": 0.3,
            "grid.omega_min": -2.0,
            "grid.omega_max": 2.0,
            "grid.n_points": 40,
            "regime": "HB",
        }
    )
    fiber_flux, _ = flux_hb(scenario.fiber, PumpConfig(p0x=0.3), grid)
    # CSV keeps 9 significant digits of the flux itself
    np.testing.assert_allclose(f_x, fiber_flux, rtol=1e-7)
    assert all(row[2] == "0" for row in rows)  # no y-axis flux


def test_spectrum_method_all_for_scalar_pump(tmp_path, capsys):
    scenario = dict(SMALL_SCALAR, method="all", lengths_km=[0.05, 0.1])
    path = write_scenario(tmp_path, scenario)
    rc, out, _ = run(capsys, "spectrum", "--scenario", path)
    assert rc == 0
    _, rows = data_rows(out)
    methods = {row[3] for row in rows}
    assert methods == {"first-order", "exact-ode", "closed-form"}
    assert len(rows) == 40 * 2 * 3
    # steps are reported once per exact-ode length
    assert out.count("# steps.L=") == 2


def test_spectrum_all_skips_closed_form_for_two_axis_pump(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "fig2", "--method", "all")
    assert rc == 0
    _, rows = data_rows(out)
    assert {row[3] for row in rows} == {"first-order", "exact-ode"}


def test_spectrum_deterministic_across_workers(tmp_path):
    scenario = dict(SMALL_SCALAR, method="all", lengths_km=[0.05, 0.1])
    path = write_scenario(tmp_path, scenario)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    assert main(["spectrum", "--scenario", path, "--out", str(out_a)]) == 0
    assert main(
        ["spectrum", "--scenario", path, "--out", str(out_b), "--workers", "3"]
    ) == 0
    assert main(["spectrum", "--scenario", path, "--out", str(out_c)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes() == out_c.read_bytes()


def test_spectrum_undersized_step_count_fails(capsys):
    rc, _, err = run(
        capsys, "spectrum", "--preset", "fig2", "--method", "exact-ode", "--steps", "25"
    )
    assert rc == 3
    assert "numerical failure" in err


OVERFLOW_SCENARIO = {
    # g*L = 450: exact fluxes of order e^900 are beyond double range
    "fiber": {"gamma_per_W_km": 3.0, "beta2_ps2_per_km": -20.0, "length_km": 500.0},
    "pump": {"p0x_W": 0.3},
    "grid": {"omega_min": -0.3, "omega_max": 0.3, "n_points": 2},
    "regime": "HB",
}


def _fig1a_small(**fiber):
    """fig1a's fiber and pump on an 8-point grid, with fiber fields replaced."""
    base = {"gamma_per_W_km": 3.0, "beta2_ps2_per_km": -20.0, "length_km": 0.1}
    return {
        "fiber": {**base, **fiber},
        "pump": {"p0x_W": 0.3},
        "grid": {"omega_min": -2.0, "omega_max": 2.0, "n_points": 8},
        "regime": "HB",
    }


OVERFLOW_CASES = [
    (OVERFLOW_SCENARIO, ("spectrum", "--method", "exact-ode")),
    (OVERFLOW_SCENARIO, ("spectrum", "--method", "exact-ode", "--steps", "200")),
    (OVERFLOW_SCENARIO, ("spectrum", "--method", "closed-form")),
    (OVERFLOW_SCENARIO, ("spectrum", "--method", "all")),
    (OVERFLOW_SCENARIO, ("compare",)),
    # beta2*Omega^2 beyond double range: lambda = i*inf
    (_fig1a_small(beta2_ps2_per_km=1e300), ("mi",)),
    # (gamma*P)^2 and L^2 beyond double range: inf, then a NaN flux or eigenvalue
    (_fig1a_small(gamma_per_W_km=1e200), ("mi",)),
    (_fig1a_small(gamma_per_W_km=1e200), ("spectrum", "--method", "closed-form")),
    (_fig1a_small(length_km=1e300), ("spectrum", "--method", "closed-form")),
    # beta2*Omega^2 = inf in the generator, caught before the matrix exponential
    (
        {**_fig1a_small(beta2_ps2_per_km=1e300), "grid": {
            "omega_min": -1e5, "omega_max": 1e5, "n_points": 8}},
        ("spectrum", "--method", "exact-ode"),
    ),
]


# pyproject.toml raises a RuntimeWarning as an error, which would escape
# main(), so these runs also show that no numpy warning reaches stderr.
@pytest.mark.parametrize(
    "scenario, argv",
    OVERFLOW_CASES,
    ids=[f"argv{index}" for index in range(len(OVERFLOW_CASES))],
)
def test_overflow_is_a_numerical_failure(tmp_path, capsys, scenario, argv):
    path = write_scenario(tmp_path, scenario)
    rc, out, err = run(capsys, *argv, "--scenario", path)
    assert rc == 3
    assert err.startswith("fps: numerical failure: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "inf" not in out and "nan" not in out


def _first_order_both_paths(*argv):
    """(rc, stdout, stderr) of `main(argv)` on the float path and on the array path.

    MAX_FLOAT_PATH_POINTS = 0 sends every first-order spectrum to numpy.
    """
    results = []
    for cutoff in (MAX_FLOAT_PATH_POINTS, 0):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "MAX_FLOAT_PATH_POINTS", cutoff)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_first_order_csv_is_the_same_on_both_paths(name):
    scenario, _ = load_scenario({**PRESETS[name], "method": "first-order"})
    assert scenario.grid.n_points * len(scenario.lengths) <= MAX_FLOAT_PATH_POINTS
    floats, array = _first_order_both_paths(
        "spectrum", "--preset", name, "--method", "first-order"
    )
    assert floats[0] == 0 and floats[2] == ""
    assert floats == array


PINS = json.loads(capture_pins.TABLE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pin_directory(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins")
    capture_pins.setup(directory, PINS["scenarios"])
    return directory


@pytest.mark.parametrize("row", PINS["rows"], ids=lambda row: " ".join(row["argv"]))
def test_cli_call_matches_its_pin(pin_directory, monkeypatch, row):
    """Exit code, stdout SHA-256 and stderr of one call equal its row of cli_pins.json."""
    monkeypatch.chdir(pin_directory)
    assert {**row, **capture_pins.call(row["argv"])} == row


#: SHA-256 of the outputs the benchmark pins byte for byte (perfbench/refs.json).
BENCHMARK_SHA256 = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text()
)["sha256"]
BENCHMARK_ROWS = {row["ref"]: row for row in PINS["rows"] if "ref" in row}


def test_benchmark_calls_cover_every_reference():
    """Each perfbench/refs.json reference is the `ref` of exactly one row."""
    refs = sorted(row["ref"] for row in PINS["rows"] if "ref" in row)
    assert refs == sorted(BENCHMARK_SHA256)


@pytest.mark.parametrize("ref", sorted(BENCHMARK_SHA256))
def test_output_matches_the_benchmark_sha256(pin_directory, monkeypatch, ref):
    """The row behind one benchmark reference holds, and prints, its refs.json SHA-256."""
    monkeypatch.chdir(pin_directory)
    row = BENCHMARK_ROWS[ref]
    assert row["stdout_sha256"] == BENCHMARK_SHA256[ref]
    assert capture_pins.call(row["argv"])["stdout_sha256"] == BENCHMARK_SHA256[ref]


#: First-order spectra beyond double range: the prefactor gamma*P*L, the
#: sinc argument R*L/2 through L or through beta2*Omega^2, and the phase
#: 2*theta0x.  Each gives NaN amplitudes, whose flux `fiber.pair_fluxes`
#: rejects.
FIRST_ORDER_OVERFLOW = [
    {**_fig1a_small(gamma_per_W_km=1e300, length_km=1e5), "pump": {"p0x_W": 1e5}},
    _fig1a_small(length_km=1e308),
    {**_fig1a_small(beta2_ps2_per_km=1e300), "grid": {
        "omega_min": -1e5, "omega_max": 1e5, "n_points": 8}},
    {**_fig1a_small(), "pump": {"p0x_W": 0.3, "theta0x_rad": 1e308}},
]


@pytest.mark.parametrize("scenario", FIRST_ORDER_OVERFLOW)
def test_first_order_overflow_exits_3_on_both_paths(tmp_path, scenario):
    path = write_scenario(tmp_path, scenario)
    floats, array = _first_order_both_paths("spectrum", "--scenario", path)
    assert floats == array
    rc, out, err = floats
    assert rc == 3 and out == ""
    assert err == "fps: numerical failure: pair flux (f_x + f_y)/2 is not finite, got nan\n"


_extreme = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.builds(lambda e, sign: sign * 10.0**e, st.integers(-320, 308), st.sampled_from([1, -1])),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fields=st.fixed_dictionaries(
        {
            "fiber.gamma_per_W_km": _extreme,
            "fiber.beta2_ps2_per_km": _extreme,
            "fiber.delta_beta0_per_km": _extreme,
            "fiber.delta_beta1_ps_per_km": _extreme,
            "fiber.length_km": _extreme,
            "pump.p0x_W": _extreme,
            "pump.p0y_W": _extreme,
            "pump.theta0x_rad": _extreme,
            "grid.omega_min": _extreme,
            "grid.omega_max": _extreme,
        }
    ),
    regime=st.sampled_from(["HB", "LB"]),
)
def test_first_order_paths_agree_on_extreme_scenarios(fields, regime):
    """Any scenario gives the same exit code, stdout and stderr on both paths."""
    flat = {**fields, "grid.n_points": 6, "regime": regime, "method": "first-order"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(flat, handle)
        floats, array = _first_order_both_paths("spectrum", "--scenario", path)
    assert floats == array
    assert floats[0] in (0, 2, 3)


def test_high_gain_exact_spectrum_is_accepted(tmp_path, capsys):
    # g*L = 13.5: fluxes near 2e10, where roundoff alone puts the absolute
    # defect |M J M^dag - J| above DEFECT_LIMIT
    scenario = {
        "fiber": {"gamma_per_W_km": 3.0, "beta2_ps2_per_km": -20.0, "length_km": 15.0},
        "pump": {"p0x_W": 0.3},
        "grid": {"omega_min": 0.29, "omega_max": 0.31, "n_points": 5},
        "regime": "HB",
        "method": "all",
    }
    path = write_scenario(tmp_path, scenario)
    rc, out, err = run(capsys, "spectrum", "--scenario", path)
    assert rc == 0 and err == ""
    _, rows = data_rows(out)
    f_x = {
        method: [float(row[1]) for row in rows if row[3] == method]
        for method in ("exact-ode", "closed-form")
    }
    assert min(f_x["closed-form"]) > 1.9e10
    np.testing.assert_allclose(f_x["exact-ode"], f_x["closed-form"], rtol=1e-9)


@pytest.mark.parametrize("steps", ["0", "-4"])
def test_nonpositive_steps_rejected(capsys, steps):
    rc, out, err = run(
        capsys, "spectrum", "--preset", "fig1a", "--method", "exact-ode", "--steps", steps
    )
    assert rc == 2
    assert err.startswith("fps: error: --steps")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("mi", "--preset", "fig1a"),
        ("classify", "--preset", "fig2", "--omega", "1.0"),
        ("spectrum", "--preset", "fig2"),  # the preset's own method, first-order
        ("spectrum", "--preset", "fig1a", "--method", "first-order"),
        ("spectrum", "--preset", "fig1a", "--method", "closed-form"),
    ],
    ids=["mi", "classify", "spectrum", "spectrum-first-order", "spectrum-closed-form"],
)
@pytest.mark.parametrize("steps", ["5", "0", str(MAX_STEP_POINTS)])
def test_steps_is_rejected_where_no_exact_ode_runs(capsys, argv, steps):
    """No RK4 runs without exact-ode, so nothing would read --steps.

    mi and classify have no such option; spectrum rejects it for the other
    methods before anything runs, whatever the step count.
    """
    if argv[0] == "spectrum":
        rc = main([*argv, "--steps", steps])
        expected = "fps: error: --steps "
    else:
        with pytest.raises(SystemExit) as info:
            main([*argv, "--steps", steps])
        rc, expected = info.value.code, "unrecognized arguments: --steps"
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == "" and expected in captured.err


COMMANDS = (("spectrum", "--method", "all"), ("mi",))
#: fig1a's fiber and pump on an 8-point grid; the examples below replace fields.
_FIG1A_SMALL_ARGS = dict(
    gamma=3.0, beta2=-20.0, delta_beta0=0.0, delta_beta1=0.0, p0x=0.3, p0y=0.0,
    theta0x=0.0, omega_a=-2.0, omega_b=2.0, n_points=8, lengths=[0.1], regime="HB",
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    command=st.sampled_from(COMMANDS),
    gamma=st.floats(min_value=0.01, max_value=50.0),
    beta2=st.floats(min_value=-200.0, max_value=200.0),
    delta_beta0=st.floats(min_value=-3000.0, max_value=3000.0),
    delta_beta1=st.floats(min_value=-500.0, max_value=500.0),
    p0x=st.floats(min_value=0.0, max_value=30.0),
    p0y=st.floats(min_value=0.0, max_value=30.0),
    theta0x=st.floats(min_value=-4.0, max_value=4.0),
    omega_a=st.floats(min_value=-200.0, max_value=200.0),
    omega_b=st.floats(min_value=-200.0, max_value=200.0),
    n_points=st.integers(min_value=2, max_value=16),
    lengths=st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=3),
    regime=st.sampled_from(["HB", "LB"]),
)
# Values beyond double range once squared or multiplied: inf or NaN in the
# MI eigenvalue and the closed forms, reported as exit 3.
@example(command=COMMANDS[1], **{**_FIG1A_SMALL_ARGS, "beta2": 1e300})
@example(command=COMMANDS[1], **{**_FIG1A_SMALL_ARGS, "gamma": 1e200})
@example(command=COMMANDS[0], **{**_FIG1A_SMALL_ARGS, "gamma": 1e200, "lengths": [1e-300]})
@example(command=COMMANDS[0], **{**_FIG1A_SMALL_ARGS, "lengths": [1e300]})
def test_extreme_scenarios_exit_cleanly(
    command, gamma, beta2, delta_beta0, delta_beta1, p0x, p0y, theta0x,
    omega_a, omega_b, n_points, lengths, regime,
):
    """Any accepted scenario gives finite output, exit 2 or exit 3."""
    scenario = {
        "fiber": {
            "gamma_per_W_km": gamma,
            "beta2_ps2_per_km": beta2,
            "delta_beta0_per_km": delta_beta0,
            "delta_beta1_ps_per_km": delta_beta1,
            "length_km": lengths[0],
        },
        "pump": {"p0x_W": p0x, "p0y_W": p0y, "theta0x_rad": theta0x},
        "grid": {
            "omega_min": min(omega_a, omega_b),
            "omega_max": max(omega_a, omega_b),
            "n_points": n_points,
        },
        "regime": regime,
        "lengths_km": lengths,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        out = os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(scenario, handle)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([*command, "--scenario", path, "--out", out])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
            # header echoes included, e.g. the mi bandwidth_ratio line
            assert re.search(r"\b(inf|nan)\b", text) is None
            _, rows = data_rows(text)
            values = np.array(
                [[float(v) for v in row if v not in METHOD_ORDER] for row in rows]
            )
            assert np.isfinite(values).all()
        else:
            assert not os.path.exists(out)


def test_spectrum_exact_preset_reports_steps(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "fig3")
    assert rc == 0
    assert out.count("# steps.L=") == 3


def test_spectrum_lb_preset(capsys):
    rc, out, _ = run(capsys, "spectrum", "--preset", "fig4a")
    assert rc == 0
    _, rows = data_rows(out)
    assert len(rows) == 640 * 3
    f_y = np.array([float(row[2]) for row in rows])
    assert f_y.max() > 0.0  # far-detuned orthogonal channel is present


def test_missing_scenario_file(capsys):
    rc, _, err = run(capsys, "spectrum", "--scenario", "/does/not/exist.json")
    assert rc == 2
    assert err.startswith("fps: error:")


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json", encoding="utf-8")
    rc, _, err = run(capsys, "spectrum", "--scenario", str(path))
    assert rc == 2
    assert "not valid JSON" in err


def test_unknown_field(tmp_path, capsys):
    path = write_scenario(tmp_path, dict(SMALL_SCALAR, fibre="typo"))
    rc, _, err = run(capsys, "spectrum", "--scenario", str(path))
    assert rc == 2
    assert "unknown scenario field" in err


@pytest.mark.parametrize(
    "patch",
    [
        {"fiber": {**SMALL_SCALAR["fiber"], "gamma_per_W_km": -3.0}},
        {"grid": {**SMALL_SCALAR["grid"], "n_points": 1}},
        {"pump": {"p0x_W": 0.0}},
        {"regime": "LB", "pump": {"p0x_W": 0.3, "p0y_W": 0.3}},
        {"method": "simpson"},
        {"lengths_km": [0.1, -0.2]},
        {"fiber": {**SMALL_SCALAR["fiber"], "beta2_ps2_per_km": "fast"}},
        {"lengths_km": [float("nan")]},
        {"lengths_km": [float("inf")]},
        {"grid": {**SMALL_SCALAR["grid"], "n_points": float("inf")}},
        # a string is not a list of lengths (it used to run 1 km and 2 km)
        {"lengths_km": "12"},
        # JSON booleans are not numbers (true used to run gamma = 1)
        {"fiber": {**SMALL_SCALAR["fiber"], "gamma_per_W_km": True}},
        {"pump": {"p0x_W": 0.3, "p0y_W": True}},
        {"grid": {**SMALL_SCALAR["grid"], "n_points": True}},
        {"lengths_km": [0.1, True]},
        # JSON strings are not numbers ("8" used to run 8 points)
        {"grid": {**SMALL_SCALAR["grid"], "n_points": "8"}},
        # a count is a JSON integer, as FrequencyGrid takes it (8.0 used to run 8 points)
        {"grid": {**SMALL_SCALAR["grid"], "n_points": 8.0}},
        {"fiber": {**SMALL_SCALAR["fiber"], "gamma_per_W_km": "3.0"}},
        {"lengths_km": ["0.1"]},
        # PumpConfig's own checks: no negative power, a positive duration
        {"pump": {"p0x_W": 0.3, "p0y_W": -0.1}},
        {"pump": {"p0x_W": 0.3, "duration_ps": 0}},
        {"pump": {"p0x_W": 0.3, "duration_ps": -5}},
    ],
)
def test_rejected_scenarios(tmp_path, capsys, patch):
    path = write_scenario(tmp_path, {**SMALL_SCALAR, **patch})
    rc, _, err = run(capsys, "spectrum", "--scenario", str(path))
    assert rc == 2
    assert err.startswith("fps: error:")


@pytest.mark.parametrize(
    "value",
    [
        "1" + "0" * 5000,  # beyond the int digit limit: ValueError, not JSONDecodeError
        "[" * 100_000 + "]" * 100_000,  # RecursionError
    ],
    ids=["long-integer", "deep-nesting"],
)
def test_json_that_python_cannot_load_is_rejected(tmp_path, capsys, value):
    path = tmp_path / "scenario.json"
    text = json.dumps(SMALL_SCALAR).replace('"n_points": 40', '"n_points": ' + value)
    path.write_text(text, encoding="utf-8")
    rc, out, err = run(capsys, "spectrum", "--scenario", str(path))
    assert rc == 2
    assert err.startswith("fps: error: scenario file is not valid JSON") and out == ""


_THIRD = MAX_SPECTRAL_POINTS // 3  # "all" on a single-axis HB pump runs 3 methods


@pytest.mark.parametrize(
    "argv, n_points, n_lengths, allowed",
    [
        (("spectrum",), MAX_SPECTRAL_POINTS, 1, True),
        (("spectrum",), MAX_SPECTRAL_POINTS + 1, 1, False),
        (("spectrum",), MAX_SPECTRAL_POINTS // 2, 2, True),
        (("spectrum",), MAX_SPECTRAL_POINTS // 2 + 1, 2, False),
        (("spectrum", "--method", "all"), _THIRD, 1, True),
        (("spectrum", "--method", "all"), _THIRD + 1, 1, False),
        (("compare",), MAX_SPECTRAL_POINTS // 2, 1, True),
        (("compare",), MAX_SPECTRAL_POINTS // 2 + 1, 1, False),
        (("mi",), MAX_SPECTRAL_POINTS, 3, True),  # the grid counts once
        (("mi",), MAX_SPECTRAL_POINTS + 1, 1, False),
        (("classify", "--omega", "1.0", "--duration", "100"), MAX_SPECTRAL_POINTS, 3, True),
        (("classify", "--omega", "1.0", "--duration", "100"), MAX_SPECTRAL_POINTS + 1, 1, False),
        # --steps x grid points x lengths on the RK4 path
        (("spectrum", "--method", "exact-ode", "--steps", str(MAX_STEP_POINTS // 4)), 2, 2, True),
        (("spectrum", "--method", "exact-ode", "--steps", str(MAX_STEP_POINTS // 4 + 1)), 2, 2, False),
        (("compare", "--steps", str(MAX_STEP_POINTS // 2)), 2, 1, True),
        (("compare", "--steps", str(MAX_STEP_POINTS // 2 + 1)), 2, 1, False),
    ],
)
def test_cost_caps(tmp_path, capsys, monkeypatch, argv, n_points, n_lengths, allowed):
    """At a cap the call reaches its runner; one unit above it exits 2 first.

    The runners are stubbed, so neither case builds a grid or runs anything.
    """
    calls = []
    monkeypatch.setattr(cli, f"run_{argv[0]}", lambda *args: calls.append(args) or "ran\n")
    scenario = {
        **SMALL_SCALAR,
        "grid": {**SMALL_SCALAR["grid"], "n_points": n_points},
        "lengths_km": [0.1] * n_lengths,
    }
    path = write_scenario(tmp_path, scenario)
    rc, out, err = run(capsys, *argv[:1], "--scenario", path, *argv[1:])
    if allowed:
        assert (rc, out, len(calls)) == (0, "ran\n", 1)
    else:
        assert (rc, out, calls) == (2, "", [])
        assert err.startswith("fps: error: ") and "exceed the cap" in err


def _y_pumped(name: str) -> dict:
    """An LB preset with its pump moved to y: the axes relabeled, delta_beta0 negated."""
    preset = PRESETS[name]
    return {
        **preset,
        "fiber.delta_beta0_per_km": -preset["fiber.delta_beta0_per_km"],
        "pump.p0x_W": 0.0,
        "pump.p0y_W": preset["pump.p0x_W"],
        "pump.theta0y_rad": 0.7,
    }


@pytest.mark.parametrize("name", ["fig4a", "fig4b"])
@pytest.mark.parametrize(
    "extra",
    [("--method", "all"), ("--method", "exact-ode", "--steps", "3000")],
    ids=["all", "rk4"],
)
def test_y_pumped_lb_spectrum_mirrors_the_x_pump(tmp_path, capsys, name, extra):
    """Every method gives the x-pump rows with the f_x and f_y columns swapped."""
    path = write_scenario(tmp_path, _y_pumped(name))
    rc_x, out_x, _ = run(capsys, "spectrum", "--preset", name, *extra)
    rc_y, out_y, err = run(capsys, "spectrum", "--scenario", path, *extra)
    assert (rc_x, rc_y, err) == (0, 0, "")
    header_x, rows_x = data_rows(out_x)
    header_y, rows_y = data_rows(out_y)
    assert header_y == header_x
    assert len(rows_x) == PRESETS[name]["grid.n_points"] * 3 * (3 if "all" in extra else 1)
    assert rows_y == [[omega, f_y, f_x, *rest] for omega, f_x, f_y, *rest in rows_x]


def test_classify_y_pumped_lb_mirrors_the_x_pump(tmp_path, capsys):
    path = write_scenario(tmp_path, _y_pumped("fig4a"))
    rc_x, out_x, _ = run(capsys, "classify", "--preset", "fig4a", "--omega", "28.0")
    rc_y, out_y, err = run(capsys, "classify", "--scenario", path, "--omega", "28.0")
    assert (rc_x, rc_y, err) == (0, 0, "")
    x_report, y_report = json.loads(out_x), json.loads(out_y)
    x_abs2, y_abs2 = x_report["coeff_abs2"], y_report["coeff_abs2"]
    assert (y_abs2["xx"], y_abs2["yy"]) == (x_abs2["yy"], x_abs2["xx"])
    assert y_abs2["xy"] == y_abs2["yx"] == 0.0
    for key in ("concurrence", "generation_probability"):
        assert y_report[key] == x_report[key]


def test_closed_form_rejects_two_axis_pump(capsys):
    rc, _, err = run(capsys, "spectrum", "--preset", "fig2", "--method", "closed-form")
    assert rc == 2
    assert "single-axis" in err


def test_preset_and_scenario_are_exclusive(tmp_path, capsys):
    path = write_scenario(tmp_path, SMALL_SCALAR)
    rc, _, err = run(capsys, "spectrum", "--preset", "fig2", "--scenario", path)
    assert rc == 2
    assert "not both" in err
    rc, _, err = run(capsys, "spectrum")
    assert rc == 2
    assert "required" in err


def test_negative_group_mismatch_is_normalized(tmp_path, capsys):
    scenario = {
        "fiber": {
            "gamma_per_W_km": 3.0,
            "beta2_ps2_per_km": 15.0,
            "delta_beta0_per_km": 50.0,
            "delta_beta1_ps_per_km": -200.0,
            "length_km": 0.2,
        },
        "pump": {
            "p0x_W": 0.05,
            "p0y_W": 0.25,
            "theta0x_rad": 0.1,
            "theta0y_rad": 0.4,
            "duration_ps": 100.0,
        },
        "grid": {"omega_min": -15.0, "omega_max": 15.0, "n_points": 40},
        "regime": "HB",
    }
    path = write_scenario(tmp_path, scenario)
    rc, out, _ = run(capsys, "spectrum", "--scenario", path)
    assert rc == 0
    assert "# fiber.delta_beta0_per_km = -50" in out
    assert "# fiber.delta_beta1_ps_per_km = 200" in out
    assert "# pump.p0x_W = 0.25" in out
    assert "# pump.p0y_W = 0.05" in out
    assert "# pump.theta0x_rad = 0.4" in out
    assert "# pump.theta0y_rad = 0.1" in out
    assert "# pump.duration_ps = 100" in out


def test_mi_curve_output(capsys):
    rc, out, _ = run(capsys, "mi", "--preset", "fig1a")
    assert rc == 0
    assert "# pump_total_W = 0.3" in out
    ratio_line = next(
        line for line in out.splitlines() if line.startswith("# bandwidth_ratio = ")
    )
    expected = math.sqrt(2.0 / math.pi) * math.sqrt(0.9 * 0.1)
    assert float(ratio_line.split("=")[1]) == pytest.approx(expected, rel=1e-6)
    header, rows = data_rows(out)
    assert header == "omega_rad_per_ps,gain_per_km,lambda_re_per_km,lambda_im_per_km"
    gains = np.array([float(row[1]) for row in rows])
    omegas = np.array([float(row[0]) for row in rows])
    assert gains.max() == pytest.approx(0.9, abs=5e-4)
    assert np.all(gains[np.abs(omegas) > 0.43] == 0.0)


def test_mi_normal_dispersion_curve_is_zero(capsys):
    rc, out, _ = run(capsys, "mi", "--preset", "fig1b")
    assert rc == 0
    _, rows = data_rows(out)
    assert {row[1] for row in rows} == {"0"}


def test_classify_bell_like(capsys):
    rc, out, _ = run(capsys, "classify", "--preset", "fig2", "--omega", "1.0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["classification"] == "bell-like"
    assert payload["concurrence"] >= 0.99
    assert abs(payload["relative_phase_rad"]) < 1e-9
    assert payload["bell_phase_rad"] == 0.0
    assert set(payload["coeff_abs2"]) == {"xx", "yy", "xy", "yx"}
    assert sum(payload["coeff_abs2"].values()) == pytest.approx(1.0)


def test_classify_vector_peak(capsys):
    omega = (200.0 + math.sqrt(200.0**2 - 4.0 * 15.0 * 0.9)) / 30.0
    rc, out, _ = run(capsys, "classify", "--preset", "fig2", "--omega", repr(omega))
    assert rc == 0
    payload = json.loads(out)
    assert payload["classification"] == "product-yx"
    assert payload["coeff_abs2"]["yx"] > 0.99


def test_classify_scalar_pump_has_null_phase(capsys):
    rc, out, _ = run(capsys, "classify", "--preset", "fig1a", "--omega", "1.0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["classification"] == "scalar-only-x"
    assert payload["relative_phase_rad"] is None


def test_classify_unequal_split_is_partial(tmp_path, capsys):
    scenario = {
        "fiber": {
            "gamma_per_W_km": 3.0,
            "beta2_ps2_per_km": 15.0,
            "delta_beta1_ps_per_km": 200.0,
            "length_km": 0.2,
        },
        "pump": {"p0x_W": 0.25, "p0y_W": 0.05, "duration_ps": 100.0},
        "grid": {"omega_min": -15.0, "omega_max": 15.0, "n_points": 40},
        "regime": "HB",
    }
    path = write_scenario(tmp_path, scenario)
    rc, out, _ = run(capsys, "classify", "--scenario", path, "--omega", "1.0")
    assert rc == 0
    assert json.loads(out)["classification"] == "partial"


def test_classify_duration_handling(tmp_path, capsys):
    path = write_scenario(tmp_path, SMALL_SCALAR)  # no pump duration
    rc, _, err = run(capsys, "classify", "--scenario", path, "--omega", "1.0")
    assert rc == 2
    assert "--duration" in err
    rc, out, _ = run(
        capsys, "classify", "--scenario", path, "--omega", "1.0", "--duration", "50"
    )
    assert rc == 0
    assert json.loads(out)["duration_ps"] == 50.0


def test_classify_rejects_nonpositive_omega(capsys):
    rc, _, err = run(capsys, "classify", "--preset", "fig2", "--omega", "-1.0")
    assert rc == 2
    assert "omega" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("--omega", "inf"), 2),
        (("--omega", "1e300"), 3),  # beta2*Omega^2 = inf: NaN amplitudes
        (("--omega", "1.0", "--duration", "1e-320"), 3),  # probability = inf
        (("--omega", "1.0", "--duration", "inf"), 2),
        (("--omega", "1.0", "--tol", "nan"), 2),
    ],
)
def test_classify_non_finite_is_rejected(capsys, argv, code):
    rc, out, err = run(capsys, "classify", "--preset", "fig2", *argv)
    assert rc == code
    assert err.startswith("fps: ") and err.count("\n") == 1 and err.endswith("\n")
    assert re.search(r"NaN|Infinity", out) is None


def test_compare_report(capsys):
    rc, out, _ = run(capsys, "compare", "--preset", "fig1a")
    assert rc == 0
    report = json.loads(out)
    lengths = [entry["L_km"] for entry in report["comparisons"]]
    assert lengths == [0.1, 0.2, 0.3]
    devs = [entry["max_rel_dev"] for entry in report["comparisons"]]
    assert devs[0] <= 0.02
    assert devs[0] < devs[1] < devs[2]
    assert report["deviation_increases_with_length"] is True
    for entry in report["comparisons"]:
        assert 0.0 <= entry["mean_rel_dev"] <= entry["max_rel_dev"]
        assert entry["peak_flux"] > 0.0
        # 9 significant digits, like the CSVs
        for key in ("peak_flux", "max_rel_dev", "mean_rel_dev"):
            assert entry[key] == float(format(entry[key], ".9g"))


def test_out_file_matches_stdout(tmp_path, capsys):
    rc, stdout_text, _ = run(capsys, "presets")
    assert rc == 0
    target = tmp_path / "presets.json"
    rc = main(["presets", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == ""
    assert target.read_text(encoding="utf-8") == stdout_text
    for unwritable in (tmp_path / "missing" / "x.csv", tmp_path):
        rc, out, err = run(capsys, "presets", "--out", str(unwritable))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("fps: error: cannot write output file: ")


#: scipy is a test oracle only: no subcommand may import it at run time.  The
#: check also lists numpy and the fps submodules that the call loaded.
NO_SCIPY_CHECK = """
import json
import sys
from fps.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:  # an argparse error
    rc = exc.code
scipy = [name for name in sys.modules if name == "scipy" or name.startswith("scipy.")]
watched = ("dataclasses", "inspect", "numpy")
loaded = sorted(name for name in sys.modules if name in watched or name.startswith("fps."))
print(json.dumps([rc, scipy, loaded]))
"""


def _run_python(code, *argv):
    """`python -c code argv...` on this checkout's src/, which must exit 0."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


# The containers of fps.fiber are dataclasses, so a call that reads a
# scenario loads dataclasses and, through it, inspect.
FIRST_ORDER_MODULES = ["dataclasses", "fps.cli", "fps.errors", "fps.fiber", "fps.hb", "inspect"]


@pytest.mark.parametrize(
    "argv, rc, loaded",
    [
        pytest.param(
            ("spectrum", "--preset", "fig3", "--method", "all"),
            0,
            sorted(FIRST_ORDER_MODULES + ["fps.dynamics", "numpy"]),
            id="spectrum",
        ),
        pytest.param(
            ("spectrum", "--preset", "fig2", "--method", "first-order"),
            0,
            FIRST_ORDER_MODULES,
            id="spectrum-first-order",
        ),
        pytest.param(
            ("compare", "--preset", "fig1a"),
            0,
            sorted(FIRST_ORDER_MODULES + ["fps.dynamics", "numpy"]),
            id="compare",
        ),
        pytest.param(
            ("classify", "--preset", "fig2", "--omega", "1.0"),
            0,
            sorted(FIRST_ORDER_MODULES + ["fps.entangle"]),
            id="classify",
        ),
        pytest.param(
            ("mi", "--preset", "fig1a"),
            0,
            ["dataclasses", "fps.cli", "fps.errors", "fps.fiber", "inspect"],
            id="mi",
        ),
        pytest.param(("presets",), 0, ["fps.cli", "fps.errors"], id="presets"),
        pytest.param(
            ("spectrum", "--method", "nope"), 2, ["fps.cli", "fps.errors"], id="usage-error"
        ),
    ],
)
def test_subcommand_runs_without_scipy(tmp_path, argv, rc, loaded):
    """No subcommand loads scipy; each loads only the modules it runs.

    `presets`, an argparse error, `mi`, `classify` and a first-order
    spectrum at most MAX_FLOAT_PATH_POINTS points large load no numpy, and
    a first-order spectrum loads neither fps.dynamics nor fps.entangle.
    `presets` and an argparse error read no scenario, so they load neither
    dataclasses nor inspect.  A successful
    call writes nothing to stderr, not even a numpy warning; an argparse
    error writes only its usage message.
    """
    proc = _run_python(NO_SCIPY_CHECK, *argv, "--out", str(tmp_path / "out"))
    assert json.loads(proc.stdout) == [rc, [], loaded]
    if rc == 0:
        assert proc.stderr == ""
    else:
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: fps spectrum ")
        assert lines[-1].startswith("fps spectrum: error: argument --method: invalid choice")


@pytest.mark.parametrize(
    "n_points, n_lengths, numpy_loaded",
    [(MAX_FLOAT_PATH_POINTS // 2, 2, False), (MAX_FLOAT_PATH_POINTS + 1, 1, True)],
)
def test_first_order_spectrum_loads_numpy_above_the_float_cutoff(
    tmp_path, n_points, n_lengths, numpy_loaded
):
    """A first-order spectrum loads numpy only above MAX_FLOAT_PATH_POINTS.

    At the cutoff (grid points x lengths) it runs in Python floats; one
    point more runs the array path, still without a word on stderr.
    """
    scenario = {
        **SMALL_SCALAR,
        "grid": {**SMALL_SCALAR["grid"], "n_points": n_points},
        "lengths_km": [0.1] * n_lengths,
    }
    path = write_scenario(tmp_path, scenario)
    out = str(tmp_path / "out")
    proc = _run_python(NO_SCIPY_CHECK, "spectrum", "--scenario", path, "--out", out)
    expected = FIRST_ORDER_MODULES + ["numpy"] if numpy_loaded else FIRST_ORDER_MODULES
    assert json.loads(proc.stdout) == [0, [], expected]
    assert proc.stderr == ""


LAZY_IMPORT_CHECK = """
import sys
def loaded():
    print(sorted(name for name in sys.modules if name == "numpy" or name.startswith("fps")))
import fps
loaded()
fps.flux_lb
loaded()
fps.dynamics
loaded()
"""


def test_import_fps_defers_its_submodules():
    """A bare `import fps` loads no submodule and no numpy.

    A public name loads its own submodule and what that imports, and a
    submodule is an attribute of the package, as before.  `fps.hb` and
    `fps.fiber` import numpy only where an array is passed.
    """
    proc = _run_python(LAZY_IMPORT_CHECK)
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    first_order = ["fps", "fps.errors", "fps.fiber", "fps.hb"]
    assert lines == [
        str(["fps"]),
        str(first_order),
        str(sorted(first_order + ["fps.dynamics", "numpy"])),
    ]


def test_package_names_are_their_modules_objects():
    modules = [
        importlib.import_module(f"fps.{info.name}")
        for info in pkgutil.iter_modules(fps.__path__)
        if not info.name.startswith("_")  # importing __main__ would run the CLI
    ]
    assert len(fps.__all__) == len(set(fps.__all__)) == 51
    for name in fps.__all__:
        value = getattr(fps, name)
        homes = [module for module in modules if hasattr(module, name)]
        assert homes, name
        assert all(getattr(module, name) is value for module in homes), name
    assert set(fps.__all__) <= set(dir(fps))
    with pytest.raises(AttributeError, match="no attribute 'flux_xy'"):
        fps.flux_xy
    with pytest.raises(ImportError):
        from fps import flux_xy  # noqa: F401


def test_src_defines_nothing_that_only_tests_use():
    """Every definition in src/fps is public, a dunder or used by fps itself.

    Checked: each top-level function, class and assignment, and each method
    or property of a class that is kept.  A use is a loaded `Name`, a loaded
    `Attribute` or an import alias anywhere in src/fps; a docstring mention
    does not count.
    """
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(fps.__file__).parent.glob("*.py")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)

    def kept(name):
        is_dunder = name.startswith("__") and name.endswith("__")
        return is_dunder or name in fps.__all__ or name in used

    unused = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            unused += [f"{module}:{name}" for name in names if not kept(name)]
            if isinstance(node, ast.ClassDef) and kept(node.name):
                unused += [
                    f"{module}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not kept(item.name)
                ]
    assert unused == []


#: A valid scenario for every subcommand (classify reads the pump duration).
FUZZ_BASE = {
    "fiber.gamma_per_W_km": 3.0,
    "fiber.beta2_ps2_per_km": -20.0,
    "fiber.length_km": 0.1,
    "pump.p0x_W": 0.3,
    "pump.duration_ps": 100.0,
    "grid.omega_min": -2.0,
    "grid.omega_max": 2.0,
    "grid.n_points": 8,
    "regime": "HB",
    "method": "first-order",
    "lengths_km": [0.1],
}
FUZZ_KEYS = sorted(
    {*FUZZ_BASE, "fiber.delta_beta0_per_km", "fiber.delta_beta1_ps_per_km", "pump.p0y_W",
     "pump.theta0x_rad", "pump.theta0y_rad"}
)
FUZZ_COMMANDS = (("spectrum",), ("compare",), ("classify", "--omega", "1.0"), ("mi",))
#: Free text without digits, so that no random string parses as a large grid.
_NO_DIGITS = "abcxyzHBL .-_"
malformed_st = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["", "12", "3.0", "nan", "Infinity", "1e400", "HB", "LB", "all"]),
    st.text(alphabet=_NO_DIGITS, max_size=6),
    st.lists(
        st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.integers(-10**30, 10**30)),
        max_size=4,
    ),
    st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=2), st.integers(), max_size=2),
    # huge integers, uniform in the exponent: beyond int64 and beyond double range
    st.builds(lambda e, sign: sign * 10**e, st.integers(18, 400), st.sampled_from([1, -1])),
)


def _nested(flat: dict) -> dict:
    nested: dict = {}
    for key, value in flat.items():
        section, _, name = key.rpartition(".")
        (nested.setdefault(section, {}) if section else nested)[name] = value
    return nested


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    patch=st.dictionaries(st.sampled_from(FUZZ_KEYS), malformed_st, max_size=3),
    dropped=st.sets(st.sampled_from(["fiber", "pump", "grid", "regime"]), max_size=2),
)
def test_malformed_scenarios_exit_cleanly(command, patch, dropped):
    """Wrong types, huge integers and missing sections end in exit 0, 2 or 3."""
    flat = {
        key: value
        for key, value in {**FUZZ_BASE, **patch}.items()
        if key.split(".")[0] not in dropped
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_nested(flat), handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*command, "--scenario", path])
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert re.search(r"\b(nan|inf|NaN|Infinity)\b", out.getvalue()) is None
    if rc != 0:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
