"""Each public entry point rejects an out-of-domain argument with ValueError."""

from fractions import Fraction

import pytest

from mvlab.exact import LaurentT, bernoulli, pochhammer
from mvlab.funceq import verify_functional_eqs
from mvlab.genus import kazarian_c, tilde_u, u_direct
from mvlab.verify import run_suite
from mvlab.volumes import cg_seq, kappa, lambda_g_value

from laurent_ref import GenusBlock


@pytest.mark.parametrize("call", [
    lambda: bernoulli(-1),
    lambda: pochhammer(1, -1),
    lambda: GenusBlock(Fraction(0), LaurentT()).ddx_n(-1),
    lambda: tilde_u(-1),
    lambda: u_direct(-1),
    lambda: kazarian_c(0),
    lambda: verify_functional_eqs(-1, 1),
    lambda: run_suite("nope"),
    lambda: lambda_g_value(1),
    lambda: cg_seq(-1),
    lambda: kappa(-1),
], ids=[
    "bernoulli", "pochhammer", "ddx_n", "tilde_u", "u_direct", "kazarian_c",
    "verify_functional_eqs", "run_suite", "lambda_g_value", "cg_seq", "kappa",
])
def test_out_of_domain_argument_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
