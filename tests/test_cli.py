import numpy as np
import pytest

from tc4.cli import main


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


@pytest.mark.parametrize("command", ["build", "evolve"])
def test_non_finite_closed_form_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    assert main([command, "--cutoff", "8", "--t", "1e308", "--out", str(out)]) == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


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
