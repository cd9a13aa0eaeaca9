"""Localized impurity cloud coupled off-resonantly to the forward channel.

M extra atoms occupy a short region of length delta_l around z_center. They
imprint a phase on the forward field; the density profile is a Gaussian whose
peak equals M/delta_l (the atoms-per-length of a top-hat of that length), so
the closed-form phase laws below hold with the stated parameters.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (
    DegenerateCoefficients,
    NonDispersiveRegime,
    NonPhysicalParameter,
    PerturberOffGrid,
)
from .medium import Coefficients, MediumModel, coefficients, delta_weighted


@dataclasses.dataclass(frozen=True)
class PerturberSpec:
    """Impurity cloud parameters.

    sigma_over_s is the scattering cross-section divided by the beam area;
    gamma_a the impurity linewidth; detuning = omega_a - omega_plus > gamma_a
    for dispersive operation.
    """

    m_atoms: float
    z_center: float
    length: float
    sigma_over_s: float
    gamma_a: float
    detuning: float


def build_perturber(m_atoms, z_center, length, sigma_over_s, gamma_a, detuning) -> PerturberSpec:
    if m_atoms <= 0.0:
        raise NonPhysicalParameter(f"perturber.m_atoms must be positive, got {m_atoms}")
    if length <= 0.0:
        raise NonPhysicalParameter(f"perturber.length must be positive, got {length}")
    if sigma_over_s <= 0.0:
        raise NonPhysicalParameter(
            f"perturber.sigma_over_s must be positive, got {sigma_over_s}")
    if gamma_a <= 0.0:
        raise NonPhysicalParameter(f"perturber.gamma_a must be positive, got {gamma_a}")
    spec = PerturberSpec(float(m_atoms), float(z_center), float(length),
                         float(sigma_over_s), float(gamma_a), float(detuning))
    _require_dispersive(spec)
    return spec


def _require_dispersive(spec: PerturberSpec):
    if abs(spec.detuning) <= spec.gamma_a:
        raise NonDispersiveRegime(
            f"|perturber.detuning| = {abs(spec.detuning):g} must exceed the linewidth "
            f"perturber.gamma_a = {spec.gamma_a:g}")


def cloud_rms(medium: MediumModel, spec: PerturberSpec) -> float:
    """The rms width of the cloud's Gaussian, length/sqrt(2 pi) floored at
    4 dz when the grid cannot carry it. Refuses a cloud whose center lies
    within 4 rms of a domain edge."""
    rms = max(spec.length / math.sqrt(2.0 * math.pi), 4.0 * medium.dz)
    margin = 4.0 * rms
    if not (margin < spec.z_center < medium.domain_length - margin):
        raise PerturberOffGrid(
            f"perturber.z_center = {spec.z_center:g} lies within 4 rms "
            f"({margin:g}, from perturber.length) of a domain edge")
    return rms


def perturber_density(medium: MediumModel, spec: PerturberSpec) -> np.ndarray:
    """Atoms-per-length profile on the grid; integrates to m_atoms.

    Peak density is m_atoms/length (Gaussian of rms width `cloud_rms`,
    length/sqrt(2 pi) unless the grid floors it at 4 dz); the area is
    preserved either way.
    """
    rms = cloud_rms(medium, spec)
    z = medium.grid()
    density = np.exp(-((z - spec.z_center) ** 2) / (2.0 * rms ** 2))
    density *= spec.m_atoms / (math.sqrt(2.0 * math.pi) * rms)
    return density


def interaction_rate(spec: PerturberSpec) -> complex:
    """Complex per-density rate multiplying the forward field per unit tau."""
    return -spec.sigma_over_s * spec.gamma_a / complex(spec.gamma_a, spec.detuning)


def phase_shift_traveling(medium: MediumModel, co: Coefficients,
                          spec: PerturberSpec) -> float:
    """Total phase picked up by a pulse crossing the cloud once."""
    _require_dispersive(spec)
    factor = delta_weighted(medium, co) / medium.xi_minus
    if abs(factor) < 1e-12:
        raise DegenerateCoefficients(
            "drift factor vanishes (standing pulse): use phase_rate_stationary")
    return (spec.m_atoms * spec.sigma_over_s * spec.gamma_a
            / (factor * spec.detuning))


def phase_rate_stationary(medium: MediumModel, spec: PerturberSpec) -> tuple[float, float]:
    """(chi, t_pi): phase accumulation rate of a held pulse and the time to pi.

    Assumes the hold keeps the total control power at its entry value, so the
    polariton weight at the cloud stays at the slow-light one.
    """
    _require_dispersive(spec)
    chi = (spec.m_atoms * spec.sigma_over_s * spec.gamma_a * medium.u_g0
           / (spec.detuning * spec.length))
    return chi, math.pi / abs(chi)


def polariton_dilution(medium: MediumModel, co: Coefficients) -> float:
    """Share of a forward-channel phase imprint inherited by the polariton.

    The uniform-mode balance of the transport pair gives the held pulse a
    phase rate of D * (imprint rate on the forward field), with
    D = eta * xi_minus * alpha_plus / (xi_minus alpha_plus + rho xi_plus alpha_minus).
    """
    num = co.eta * medium.xi_minus * co.alpha_plus
    den = (medium.xi_minus * co.alpha_plus
           + medium.rho * medium.xi_plus * co.alpha_minus)
    if den == 0.0:
        raise DegenerateCoefficients(
            "polariton dilution undefined with both controls off")
    return num / den


def stationary_rate_measured_scale(medium: MediumModel, spec: PerturberSpec,
                                   omega_plus: float, omega_minus: float) -> float:
    """Exact rate/chi ratio at given controls.

    Folds in the finite-linewidth correction and the polariton dilution of
    the forward-channel imprint. Equals Delta^2/(gamma_a^2 + Delta^2) when
    the hold keeps the entry forward control and adds a matched backward one.
    """
    co = coefficients(medium, omega_plus, omega_minus)
    exact = (spec.sigma_over_s * spec.gamma_a * (spec.m_atoms / spec.length)
             * polariton_dilution(medium, co) * co.tau_rate * spec.detuning
             / (spec.gamma_a ** 2 + spec.detuning ** 2))
    chi, _ = phase_rate_stationary(medium, spec)
    return exact / chi
