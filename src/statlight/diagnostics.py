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
from .medium import PulseSpec
from .oracle import OracleWalk, check_channel, gaussian_envelope

ENERGY_FLOOR = 1e-30
MIN_FIT_POINTS = 5


@dataclasses.dataclass(frozen=True)
class Moments:
    energy: float
    centroid: float
    rms: float
    peak: float


def _spread(z: np.ndarray, w: np.ndarray, dz: float) -> tuple[float, float, float]:
    """(energy, centroid, rms) of the intensity w = |field|^2 sampled on z;
    an empty field is refused."""
    energy = float(np.sum(w) * dz)
    if energy < ENERGY_FLOOR:
        raise EmptyField(f"field energy {energy:g} below {ENERGY_FLOOR:g}")
    centroid = float(np.sum(w * z) * dz / energy)
    var = float(np.sum(w * (z - centroid) ** 2) * dz / energy)
    return energy, centroid, max(math.sqrt(max(var, 0.0)), dz)


def moments(z: np.ndarray, field: np.ndarray, dz: float) -> Moments:
    """Intensity-weighted moments of a complex field sampled on z. The peak
    is read from the one |field| the weights square."""
    magnitude = np.abs(np.asarray(field))
    energy, centroid, rms = _spread(z, magnitude ** 2, dz)
    return Moments(energy=energy, centroid=centroid, rms=rms,
                   peak=float(np.max(magnitude)))


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


def compare_to_oracle(walk: OracleWalk, pulse: PulseSpec, t: float,
                      envelopes, squares, anchor=None):
    """Relative errors (envelope l2, width, decay) of one measured channel
    envelope at time t against the closed form, and the anchor to score the
    next snapshot of the same series with. `envelopes` is the non-negative
    pair (a_plus, a_minus) that `_record` forms and `squares` their squares;
    the channel scored is the one whose control is on at t, "+" when both
    or neither are.

    The anchor (scale, peak, B0, decay factor) comes from the series' first
    snapshot, scored with anchor=None, so only evolution (drift, spreading,
    decay) is scored, not the injection normalization. After
    `check_channel`'s refusals, the width B, the decay pair and the drift
    are read at t from `walk`, the series' one `OracleWalk`, which
    `gaussian_envelope` reads too, so a series takes no quadrature of its
    own per snapshot; the width error's rms is the moment of the squared
    envelope.
    """
    medium, schedule = walk.medium, walk.schedule
    z = medium.grid()
    op, om = schedule.values(t)
    channel = "-" if op == 0.0 and om != 0.0 else "+"
    check_channel(medium, schedule, channel, t)
    k = 0 if channel == "+" else 1
    a = envelopes[k]
    # the closed form is a positive prefactor times a Gaussian
    pred = gaussian_envelope(medium, schedule, pulse, channel, t, z, walk)
    b = walk.width(pulse, t)
    df = math.exp(-walk.decay(t)[1])
    pk = float(np.max(a))
    if anchor is None:
        if pk <= 0.0:
            raise EmptyField(f"first snapshot has no field in channel {channel}")
        anchor = (pk / float(np.max(pred)), pk, b, df)
    scale, peak0, b0, df0 = anchor
    pred = pred * scale
    env_err = float(np.linalg.norm(a - pred) / np.linalg.norm(pred))

    _, _, rms = _spread(z, squares[k], medium.dz)
    width_err = abs(rms - b / math.sqrt(2.0)) / (b / math.sqrt(2.0))

    predicted_ratio = (df / df0) * (b0 / b)
    measured_ratio = pk / peak0
    decay_err = abs(measured_ratio - predicted_ratio) / max(predicted_ratio, 1e-300)
    return (env_err, width_err, decay_err), anchor


def energy_fraction(intensity, mask) -> float:
    """Share of the grid energy `intensity` (|psi_+|^2 + |psi_-|^2 of the
    two channels) that sits where mask is true; zero for an empty field."""
    total = float(np.sum(intensity))
    if total <= 0.0:
        return 0.0
    return float(np.sum(intensity[mask])) / total
