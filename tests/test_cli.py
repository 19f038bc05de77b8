import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tc4.cli import _write_table, main
from tc4.dynamics import coherent_state, product_state, trajectory
from tc4.fock import FockSpace
from tc4.model import ModelParams
from tc4.oracle import evolution
from tc4.propagator import full_propagator
from tc4.spins import AtomRegister


def read_operator(path):
    meta = {}
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) >= 2:
                meta[parts[0]] = parts[1]
            continue
        values = np.fromstring(line, sep=" ")
        rows.append(values[0::2] + 1j * values[1::2])
    return meta, np.array(rows)


def read_table(path):
    data = np.loadtxt(path)
    return np.atleast_2d(data)


def reference_rows(table):
    """The per-entry formatting the writer must reproduce byte for byte."""
    return "".join(" ".join(f"{x:.17e}" for x in row) + "\n" for row in table)


def split_header(text):
    lines = text.splitlines(keepends=True)
    count = sum(line.startswith("#") for line in lines)
    assert all(line.startswith("#") for line in lines[:count])
    return "".join(lines[:count]), "".join(lines[count:])


def test_write_table_matches_per_entry_formatting(tmp_path):
    big = 1.7976931348623157e308
    table = np.array(
        [
            [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-100],
            [1e100, big, -big, -1.0, 0.1, -0.0],
            [0.0, -0.0, 0.0, 0.0, -0.0, -0.0],
            [1.0, -2.5, 3e-7, 123456789.125, -1e-300, 2.0 / 3.0],
        ]
    )
    out = tmp_path / "table.txt"
    _write_table(out, ["# first", "# second"], table)
    assert out.read_text() == "# first\n# second\n" + reference_rows(table)


def test_cli_files_match_per_entry_formatting(tmp_path):
    space = FockSpace(8, 6)
    p = ModelParams(omega=1.0, delta=1.0, g=1.0, atoms=4, space=space)

    out = tmp_path / "u.txt"
    assert main(["build", "--method", "both", "--cutoff", "8", "--out", str(out)]) == 0
    for variant, u in (("closed", full_propagator(1.0, p)), ("oracle", evolution(1.0, p))):
        header, body = split_header((tmp_path / f"u.{variant}.txt").read_text())
        assert f"# variant {variant}\n" in header
        assert body == reference_rows(u.view(np.float64))

    out = tmp_path / "e.txt"
    assert main(["evolve", "--method", "both", "--cutoff", "8", "--out", str(out)]) == 0
    initial = product_state(0, coherent_state(0.0, space), AtomRegister(4), space)
    times = np.linspace(0.0, 10.0, 201)
    for variant in ("closed", "oracle"):
        traj = trajectory(p, initial, times, method=variant)
        table = np.column_stack([traj.times, traj.inversion, traj.photon])
        header, body = split_header((tmp_path / f"e.{variant}.txt").read_text())
        assert f"# variant {variant}\n" in header
        assert body == reference_rows(table)


def test_build_identity_at_zero_time(tmp_path):
    out = tmp_path / "u.txt"
    assert main(["build", "--cutoff", "8", "--t", "0", "--out", str(out)]) == 0
    meta, u = read_operator(out)
    assert meta["cutoff"] == "8"
    assert u.shape == (128, 128)
    np.testing.assert_allclose(u, np.eye(128), atol=1e-13)


def test_build_both_writes_two_files(tmp_path, capsys):
    out = tmp_path / "u.txt"
    code = main(
        ["build", "--cutoff", "8", "--t", "0.6", "--method", "both", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "guard-band max diff" in printed
    _, u_closed = read_operator(tmp_path / "u.closed.txt")
    _, u_oracle = read_operator(tmp_path / "u.oracle.txt")
    band = np.where(np.tile(np.arange(8) < 2, 16))[0]
    diff = np.abs(u_closed - u_oracle)[np.ix_(band, band)].max()
    assert diff < 1e-9


def test_build_output_is_deterministic(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for out in (first, second):
        assert main(["build", "--cutoff", "8", "--t", "1.1", "--out", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_rejects_closed_off_resonance(tmp_path):
    out = tmp_path / "u.txt"
    with pytest.raises(SystemExit) as err:
        main(["build", "--cutoff", "8", "--delta", "1.5", "--out", str(out)])
    assert err.value.code == 2


def test_build_rejects_closed_small_register(tmp_path):
    out = tmp_path / "u.txt"
    with pytest.raises(SystemExit) as err:
        main(["build", "--cutoff", "8", "--atoms", "2", "--out", str(out)])
    assert err.value.code == 2


def test_build_oracle_allows_detuning(tmp_path):
    out = tmp_path / "u.txt"
    code = main(
        [
            "build",
            "--cutoff",
            "8",
            "--atoms",
            "2",
            "--delta",
            "1.7",
            "--method",
            "oracle",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    meta, u = read_operator(out)
    assert u.shape == (32, 32)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(32), atol=1e-10)


def test_evolve_single_point_reports_initial_state(tmp_path):
    out = tmp_path / "traj.txt"
    code = main(
        ["evolve", "--cutoff", "8", "--t", "0", "--photon-cols", "3", "--out", str(out)]
    )
    assert code == 0
    table = read_table(out)
    assert table.shape == (1, 5)
    assert table[0, 0] == 0.0
    assert table[0, 1] == 2.0  # all atoms excited
    assert table[0, 2] == 1.0  # empty cavity


def test_evolve_both_methods_agree(tmp_path, capsys):
    out = tmp_path / "traj.txt"
    code = main(
        [
            "evolve",
            "--cutoff",
            "12",
            "--t-max",
            "5",
            "--t-steps",
            "11",
            "--method",
            "both",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    closed = read_table(tmp_path / "traj.closed.txt")
    ref = read_table(tmp_path / "traj.oracle.txt")
    assert np.abs(closed - ref).max() < 1e-9


def test_long_times_agree_on_both_routes(tmp_path, capsys):
    # t g = 300 used to overflow the closed form into a traceback.
    argv = ["--cutoff", "12", "--t", "300", "--method", "both"]
    assert main(["build", *argv, "--out", str(tmp_path / "u.txt")]) == 0
    assert main(["evolve", *argv, "--out", str(tmp_path / "e.txt")]) == 0
    printed = capsys.readouterr().out
    diffs = [float(line.split(": ")[1]) for line in printed.splitlines() if "closed vs oracle" in line]
    assert len(diffs) == 2
    assert max(diffs) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--t", "1e308"],
        ["evolve", "--t", "1e308"],
        # t omega overflows in the free phases, not in the amplitudes.
        ["build", "--omega", "1e307", "--t", "100", "--g", "0.5"],
    ],
    ids=["build", "evolve", "build-free-phase"],
)
def test_non_finite_closed_form_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    assert main([*argv, "--cutoff", "8", "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


LOG_SCALE = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["build", "evolve"]), LOG_SCALE, LOG_SCALE, LOG_SCALE)
def test_closed_form_is_finite_or_exits_2(command, t, omega, g):
    # Any finite time, frequency and coupling: a file of finite numbers, or
    # exit 2 naming the non-finite value; never a silent NaN.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.txt"
        argv = [command, "--cutoff", "8", "--t", repr(t), "--omega", repr(omega), "--g", repr(g)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(out)])
        if code == 2:
            assert "not finite" in err.getvalue()
            assert not out.exists()
        else:
            assert code == 0
            assert np.isfinite(np.loadtxt(out)).all()


@pytest.mark.parametrize("command", ["build", "evolve"])
def test_non_finite_oracle_exits_2(tmp_path, capsys, command):
    # The sector phases overflow; the error names the scale, not a NaN norm.
    out = tmp_path / "out.txt"
    argv = [command, "--method", "oracle", "--cutoff", "8", "--t", "1e308", "--out", str(out)]
    assert main(argv) == 2
    assert "sector phase exp(scale * w) is not finite at |scale| up to 1e+308" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_atomic_bitstring(tmp_path):
    out = tmp_path / "traj.txt"
    code = main(
        [
            "evolve",
            "--cutoff",
            "8",
            "--t",
            "0",
            "--atomic",
            "1100",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = read_table(out)
    assert table[0, 1] == pytest.approx(0.0, abs=1e-12)  # two up, two down


def test_evolve_rejects_bad_state(tmp_path):
    out = tmp_path / "traj.txt"
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--cutoff", "8", "--state", "basis:99", "--out", str(out)])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--cutoff", "8", "--atomic", "21", "--out", str(out)])
    assert err.value.code == 2


def test_evolve_rejects_oversized_coherent_state(tmp_path):
    out = tmp_path / "traj.txt"
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--cutoff", "8", "--state", "coherent:4", "--out", str(out)])
    assert err.value.code == 2


def test_evolve_state_file_roundtrip(tmp_path):
    amp_file = tmp_path / "amps.txt"
    field = np.zeros((8, 2))
    field[2, 0] = 1.0
    np.savetxt(amp_file, field)
    out = tmp_path / "traj.txt"
    code = main(
        [
            "evolve",
            "--cutoff",
            "8",
            "--t",
            "0",
            "--photon-cols",
            "4",
            "--state",
            f"file:{amp_file}",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = read_table(out)
    assert table[0, 4] == 1.0  # all weight on two photons


def test_evolve_accepts_state_file_with_large_entries(tmp_path):
    # Two rows "1e200 0": the plain norm overflows; the state is normalized.
    amp_file = tmp_path / "amps.txt"
    field = np.zeros((8, 2))
    field[[1, 2], 0] = 1e200
    np.savetxt(amp_file, field)
    out = tmp_path / "traj.txt"
    argv = ["evolve", "--cutoff", "8", "--t", "0", "--photon-cols", "4"]
    assert main([*argv, "--state", f"file:{amp_file}", "--out", str(out)]) == 0
    table = read_table(out)
    np.testing.assert_allclose(table[0, 2:], [0.0, 0.5, 0.5, 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf], ids=["zeros", "nan", "inf"])
def test_evolve_rejects_unusable_state_file(tmp_path, capsys, fill):
    amp_file = tmp_path / "amps.txt"
    np.savetxt(amp_file, np.full((8, 2), fill))
    out = tmp_path / "traj.txt"
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--cutoff", "8", "--state", f"file:{amp_file}", "--out", str(out)])
    assert err.value.code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert "bad --state: field vector must be finite with a nonzero norm" in lines[-1]
    assert "Traceback" not in "".join(lines)
    assert not out.exists()


def test_verify_passes_at_small_size(capsys):
    code = main(["verify", "--cutoff", "16", "--samples", "2"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if " residual=" in line]
    assert all(line.endswith("PASS") for line in lines)
    assert any("expected_fail" in line for line in lines)


def test_verify_tolerance_override_fails(capsys):
    code = main(["verify", "--cutoff", "16", "--samples", "1", "--tol-override", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evolve", "--t", "nan"], "--t"),
        (["evolve", "--t", "inf"], "--t"),
        (["evolve", "--g", "nan"], "--g"),
        (["evolve", "--g", "inf"], "--g"),
        (["evolve", "--t-max", "nan"], "--t-max"),
        (["evolve", "--omega", "inf"], "--omega"),
        (["evolve", "--delta=-inf", "--method", "oracle"], "--delta"),
        (["build", "--t", "nan"], "--t"),
        (["build", "--g", "-inf"], "--g"),
        (["evolve", "--photon-cols", "-3"], "--photon-cols"),
        (["evolve", "--t-steps", "-2"], "--t-steps"),
        (["evolve", "--t-steps", "0"], "--t-steps"),
    ],
)
def test_rejects_bad_numbers_naming_the_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--cutoff", "8", "--out", str(out)])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "evolve"])
@pytest.mark.parametrize("target", ["missing/out.txt", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    out = tmp_path / target
    assert main([command, "--cutoff", "8", "--t", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-3"])
def test_verify_rejects_bad_tolerance_override(capsys, value):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--cutoff", "16", "--samples", "1", f"--tol-override={value}"])
    assert err.value.code == 2
    assert "argument --tol-override:" in capsys.readouterr().err


def test_verify_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--cutoff", "16", "--samples", "1", "--seed", "-1"])
    assert err.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf", "nan+1j", "1e200"])
def test_evolve_rejects_non_finite_coherent_amplitude(tmp_path, capsys, amplitude):
    out = tmp_path / "traj.txt"
    with pytest.raises(SystemExit) as err:
        main(["evolve", "--cutoff", "8", "--state", f"coherent:{amplitude}", "--out", str(out)])
    assert err.value.code == 2
    assert "bad --state: coherent amplitude" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--method", "closed"],
        ["build", "--method", "oracle"],
        ["build", "--method", "oracle", "--atoms", "2", "--delta", "0.5"],
        ["verify"],
    ],
)
def test_cutoff_beyond_memory_exits_2(tmp_path, capsys, argv):
    # The dense output is the first large allocation on every route, so the
    # refusal comes at once.  `evolve` is left out: it allocates gigabytes of
    # states before it reaches an impossible size.
    out = [] if argv == ["verify"] else ["--out", str(tmp_path / "op.txt")]
    assert main([*argv, "--cutoff", "10000000", *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert "Traceback" not in err
    assert not (tmp_path / "op.txt").exists()
