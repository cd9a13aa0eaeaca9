"""Dispersion branch, slaving kernels, and the k-space evolution engine.

Plane-wave modes e^{ikz} of the two-channel transport pair evolve by
e^{+i omega(k) dtau}. The branch root is obtained from the 2x2 transport
determinant, which is linear in omega, so there is no quadratic-branch
ambiguity. The backward field is slaved to the forward one through a
control-independent transfer function f(k).

The guard band that refuses a pulse wrapping round the periodic domain is
run policy, in `scenario`: the engine shares no code with what scores it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import BranchSelectionFailure, ModeBlowup, NonPhysicalParameter
from .medium import (
    ControlSchedule,
    Coefficients,
    MediumModel,
    coefficients,
    delta_weighted,
    tau_of_t,
)

BLOWUP_TOL = 1e-9


def omega_from_determinant(medium: MediumModel, co: Coefficients, k):
    """Branch frequency from the transport determinant (exact, all k)."""
    karr = np.asarray(k, dtype=complex)
    xm = medium.xi_minus
    rho = medium.rho
    g2p = co.gamma2_prime
    delta = delta_weighted(medium, co)
    num = (karr ** 2 + 1j * karr * delta - 1j * karr * g2p * (1.0 - rho)
           + g2p * xm / co.eta + rho * g2p ** 2)
    den = 1j * karr * co.alpha_tilde - xm / co.eta ** 2 - rho * g2p / co.eta
    out = -1j * num / den
    if not np.all(np.isfinite(out)):
        raise BranchSelectionFailure("determinant branch evaluation not finite")
    return out if out.shape else complex(out)


def slaving_kernel(medium: MediumModel, k):
    """Transfer function f(k) with psi_minus(k) = f(k) psi_plus(k)."""
    karr = np.asarray(k, dtype=complex)
    out = (1.0 + 1j * karr / medium.xi_plus) / (1.0 - 1j * karr / medium.xi_minus)
    return out if out.shape else complex(out)


def k_grid(medium: MediumModel) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(medium.grid_points, d=medium.dz)


def release_projection(medium: MediumModel, co: Coefficients, phi: np.ndarray):
    """Split a polariton profile into on-branch (psi_plus, psi_minus) fields.

    The forward k-component is phi(k)/(alpha_+ + alpha_- f(k)) and the
    backward one follows from slaving, so the weighted sum reconstructs phi
    exactly and a same-controls store/release round trip is lossless.
    A real phi gives real fields: f(-k) is the conjugate of f(k), so the
    only imaginary content is that of an even grid's Nyquist bin, whose k
    has no partner, and the real parts still sum to phi since the alphas
    are real.
    """
    k = k_grid(medium)
    f = slaving_kernel(medium, k)
    phi_k = np.fft.fft(phi)
    denom = co.alpha_plus + co.alpha_minus * f
    psi_p_k = phi_k / denom
    pp, pm = np.fft.ifft(psi_p_k), np.fft.ifft(f * psi_p_k)
    if np.iscomplexobj(phi):
        return pp, pm
    return pp.real.copy(), pm.real.copy()


@dataclasses.dataclass
class SpectralState:
    """Forward-field spectrum at lab time `t`, on the transport branch."""

    medium: MediumModel
    k: np.ndarray
    psi_plus_k: np.ndarray
    t: float


def spectral_state_from_fields(medium: MediumModel, psi_plus: np.ndarray,
                               t: float) -> SpectralState:
    """The spectrum of the forward field `psi_plus` at lab time t."""
    if len(psi_plus) != medium.grid_points:
        raise NonPhysicalParameter("field length does not match the medium grid")
    return SpectralState(medium, k_grid(medium),
                         np.fft.fft(np.asarray(psi_plus, dtype=complex)),
                         float(t))


def fields_from_state(state: SpectralState):
    """(psi_plus, psi_minus) real-space fields of the current spectrum."""
    f = slaving_kernel(state.medium, state.k)
    return np.fft.ifft(state.psi_plus_k), np.fft.ifft(f * state.psi_plus_k)


def propagate(state: SpectralState, schedule: ControlSchedule, t_next: float) -> None:
    """Advance the spectrum to lab time t_next by the exact stretched-time
    increment from `tau_of_t`. The controls must stay constant over the
    step (`ControlSchedule.varies`), so the exponent is exact at any step
    size; a step over which they change is refused.
    """
    if not t_next > state.t:
        raise NonPhysicalParameter(
            f"t_next = {t_next:g} must follow the state time {state.t:g}")
    if schedule.varies(state.t, t_next):
        raise NonPhysicalParameter(
            f"the controls change between t = {state.t:g} and t_next = "
            f"{t_next:g}; the spectral engine steps only across constant controls")
    med = state.medium
    dtau = tau_of_t(med, schedule, t_next, state.t)
    co = coefficients(med, *schedule.values(t_next))
    omega = omega_from_determinant(med, co, state.k)

    factor = np.exp(1j * omega * dtau)
    worst = float(np.max(np.abs(factor)))
    if worst > 1.0 + BLOWUP_TOL:
        raise ModeBlowup(f"mode growth factor {worst:.12g} exceeds roundoff tolerance")
    state.psi_plus_k *= factor
    state.t = t_next

