"""Field measurements: moments, velocity/width fits, the probe's phase.

All moment integrals weight by intensity |field|^2 on the grid. Fits are
ordinary least squares; a fit over fewer than five snapshots is refused
rather than silently extrapolated.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import EmptyField, PhaseUnwrapAmbiguity, WindowTooShort
from .medium import ControlSchedule, MediumModel, PulseSpec
from .oracle import check_channel, decay_exponent, gaussian_envelope, width_b

ENERGY_FLOOR = 1e-30
MIN_FIT_POINTS = 5


@dataclasses.dataclass(frozen=True)
class Moments:
    energy: float
    centroid: float
    rms: float
    peak: float


def moments(z: np.ndarray, field: np.ndarray, dz: float) -> Moments:
    """Intensity-weighted moments of a complex field sampled on z."""
    w = np.abs(np.asarray(field)) ** 2
    energy = float(np.sum(w) * dz)
    if energy < ENERGY_FLOOR:
        raise EmptyField(f"field energy {energy:g} below {ENERGY_FLOOR:g}")
    centroid = float(np.sum(w * z) * dz / energy)
    var = float(np.sum(w * (z - centroid) ** 2) * dz / energy)
    rms = max(math.sqrt(max(var, 0.0)), dz)
    i = int(np.argmax(np.abs(field)))
    return Moments(energy=energy, centroid=centroid, rms=rms,
                   peak=float(np.abs(field[i])))


def linear_fit(x, y) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) of an ordinary least-squares line."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if len(xa) < MIN_FIT_POINTS:
        raise WindowTooShort(
            f"{len(xa)} samples in fit window, need >= {MIN_FIT_POINTS}")
    slope, intercept = np.polyfit(xa, ya, 1)
    pred = slope * xa + intercept
    ss_res = float(np.sum((ya - pred) ** 2))
    ss_tot = float(np.sum((ya - np.mean(ya)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def unwrapped_phase(samples) -> np.ndarray:
    """Unwrapped phase of a series of complex samples, snapshot by snapshot.

    Consecutive jumps above pi/2 are refused: the sampling is then too sparse
    to unwrap reliably.
    """
    a = np.asarray(samples, dtype=complex)
    if len(a) == 0:
        raise WindowTooShort("phase trace needs a non-empty series")
    if np.any(np.abs(a) < ENERGY_FLOOR):
        raise EmptyField("phase trace contains samples with no amplitude")
    raw = np.angle(a)
    out = [float(raw[0])]
    for i in range(1, len(raw)):
        d = raw[i] - raw[i - 1]
        d = (d + np.pi) % (2.0 * np.pi) - np.pi
        if abs(d) > 0.5 * np.pi:
            raise PhaseUnwrapAmbiguity(
                f"phase jump {d:.3g} rad between snapshots {i - 1} and {i}")
        out.append(out[-1] + float(d))
    return np.asarray(out)


def compare_to_oracle(medium: MediumModel, schedule: ControlSchedule,
                      pulse: PulseSpec, t: float, envelopes, anchor=None):
    """Relative errors (envelope l2, width, decay) of one measured channel
    envelope at time t against the closed form, and the anchor to score the
    next snapshot of the same series with. `envelopes` is the non-negative
    pair (a_plus, a_minus) that `_record` forms; the channel scored is the
    one whose control is on at t, "+" when both or neither are.

    The anchor (scale, peak, B0, decay factor) comes from the series' first
    snapshot, scored with anchor=None, so only evolution (drift, spreading,
    decay) is scored, not the injection normalization. After
    `check_channel`'s refusals, each call takes one `width_b` quadrature and
    one `decay_exponent` pass, and hands both to `gaussian_envelope`, which
    then does not check the channel again.
    """
    z = medium.grid()
    op, om = schedule.values(t)
    channel = "-" if op == 0.0 and om != 0.0 else "+"
    check_channel(medium, schedule, channel, t)
    a = envelopes[0 if channel == "+" else 1]
    b = width_b(medium, schedule, pulse, t)
    transport, total = decay_exponent(medium, schedule, t)
    # the closed form is a positive prefactor times a Gaussian
    pred = gaussian_envelope(medium, schedule, pulse, channel, t, z,
                             width=b, decay=transport)
    df = math.exp(-total)
    pk = float(np.max(a))
    if anchor is None:
        if pk <= 0.0:
            raise EmptyField(f"first snapshot has no field in channel {channel}")
        anchor = (pk / float(np.max(pred)), pk, b, df)
    scale, peak0, b0, df0 = anchor
    pred = pred * scale
    env_err = float(np.linalg.norm(a - pred) / np.linalg.norm(pred))

    m = moments(z, a, medium.dz)
    width_err = abs(m.rms - b / math.sqrt(2.0)) / (b / math.sqrt(2.0))

    predicted_ratio = (df / df0) * (b0 / b)
    measured_ratio = pk / peak0
    decay_err = abs(measured_ratio - predicted_ratio) / max(predicted_ratio, 1e-300)
    return (env_err, width_err, decay_err), anchor


def energy_fraction(psi_plus, psi_minus, mask) -> float:
    """Share of the two channels' grid energy |psi_+|^2 + |psi_-|^2 that sits
    where mask is true; zero for empty fields."""
    w = np.abs(psi_plus) ** 2 + np.abs(psi_minus) ** 2
    total = float(np.sum(w))
    if total <= 0.0:
        return 0.0
    return float(np.sum(w[mask])) / total
