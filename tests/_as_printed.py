"""The as-printed index ordering, kept as a negative control for the tests.

The paper prints the channel imbalance with the absorption lengths in the
opposite order. That ordering agrees with the reconciled one at r_g = 1 and
mispredicts the drift velocity everywhere else; the tests use it to show that
their gates can tell the two apart. The drift rate and the quadratic-in-k
branch frequency below are the closed forms that `medium.group_velocity` and
`spectral.omega_from_determinant` are cross-checked against; both take the
imbalance as an argument, the reconciled `delta_weighted` by default.
"""

import numpy as np

from statlight.medium import delta_weighted


def as_printed_delta(medium, co) -> float:
    """Channel imbalance with the absorption lengths in the printed order."""
    return medium.xi_plus * co.alpha_plus - medium.xi_minus * co.alpha_minus


def drift_rate(medium, co, delta=None) -> float:
    """Lab-time drift rate of the envelope law for the imbalance delta."""
    if delta is None:
        delta = delta_weighted(medium, co)
    return co.eta ** 2 * delta / medium.xi_minus * co.tau_rate


def dispersion_omega(medium, co, k, delta=None):
    """Closed-form branch frequency omega(k), quadratic-in-k form, for the
    imbalance delta."""
    if delta is None:
        delta = delta_weighted(medium, co)
    karr = np.asarray(k, dtype=complex)
    num = karr * (co.eta * delta - 1j * karr)
    den = medium.xi_minus / co.eta - 1j * karr * co.alpha_tilde
    out = 1j * co.eta * co.gamma2_prime - num / den
    assert np.all(np.isfinite(out)), "closed-form branch evaluation not finite"
    return out if out.shape else complex(out)
