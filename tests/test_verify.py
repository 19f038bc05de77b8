import numpy as np
import pytest

import tc4.propagator
import tc4.verify
from tc4.cli import main
from tc4.dynamics import coherent_state, product_state
from tc4.fock import FockSpace
from tc4.spins import AtomRegister
from tc4.verify import (
    VerifyConfig,
    draw,
    interaction_residuals,
    resonant_residuals,
    run_checks,
    spin2_block_residuals,
    trajectory_residuals,
)


def test_run_checks_refuses_zero_samples(capsys):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        run_checks(VerifyConfig(cutoff=16, samples=0))
    with pytest.raises(SystemExit) as err:
        main(["verify", "--cutoff", "16", "--samples", "0"])
    assert err.value.code == 2
    assert "argument --samples:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"cutoff": 5}, "cutoff must be at least 8"),
        ({"guard": 12}, "guard 12 leaves no usable states below cutoff 10"),
        ({"guard": 4}, "guard must be at least 6"),
    ],
)
def test_verify_refuses_unusable_truncations(capsys, config, message):
    with pytest.raises(ValueError, match=message):
        VerifyConfig(**config)
    [(flag, value)] = config.items()
    with pytest.raises(SystemExit) as err:
        main(["verify", f"--{flag}", str(value)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_shared_residuals_catch_the_printed_closed_form(monkeypatch):
    # The acceptance gate and the verify battery share these functions, so
    # they must still fail when the closed form is wrong: swap in the
    # misprinted amplitudes everywhere they are looked up, which every
    # closed-form route, operator or state, goes through.
    exact = tc4.propagator.spin2_amplitudes

    def printed(t, g, m, printed=False):
        return exact(t, g, m, printed=True)

    monkeypatch.setattr(tc4.propagator, "spin2_amplitudes", printed)
    monkeypatch.setattr(tc4.verify, "spin2_amplitudes", printed)
    space = FockSpace(16)
    draws = draw(np.random.default_rng(1234), 2)
    assert spin2_block_residuals(space, draws)["spin2_closed_vs_oracle"] > 0.1
    assert interaction_residuals(space, draws)["interaction_closed_vs_oracle"] > 0.1
    assert resonant_residuals(space, space, draws)["resonant_factorization"] > 0.1
    # Acceptance criterion 11's second start (atoms 1 and 2 excited) sheds
    # norm under the printed form.
    init = product_state(3, coherent_state(0.0, space), AtomRegister(4), space)
    with pytest.raises(ValueError, match="norm"):
        trajectory_residuals(space, init, np.linspace(0.0, 10.0, 200))
