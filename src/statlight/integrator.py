"""Direct grid integrator for the coupled two-channel transport pair.

BDF2 in stretched time, started by one Backward Euler (BE) step, with
per-channel upwind differences in z; each step's increment dtau comes from
`medium.tau_increment`: dt times the clock rate where the controls hold over
the step, the exact clock `medium.tau_of_t` over it elsewhere. In every row
the only time derivative is that of the polariton phi, so both schemes share
one matrix form: BE takes (phi - phi_n) / dtau and BDF2
(3 phi - 4 phi_n + phi_{n-1}) / (2 dtau), which is a mass factor c (1 or
3/2) on the alpha/dtau terms and the right-hand side phi_n / dtau or
(2 phi_n - phi_{n-1} / 2) / dtau.
Interleaving the unknowns as u[2i] = psi_plus(z_i), u[2i+1] = psi_minus(z_i)
makes the implicit system pentadiagonal. Its matrix is real and depends only
on c, dt, dtau and the controls, so `plan_steps` checks dt against
`advective_cap` and factors it once per constant-control window (once per
step on ramps, which stay BE), and `step` solves each right-hand side
against those factors and verifies the residual against a fixed tolerance.
The control phases are normalised out of the equations, and the prepared
pulse and the injected source are real, so the fields stay real unless a
perturber's split imprints a phase: a plan without a perturber steps in
float64, one with a perturber in complex128.
A constant-control step's dtau depends on dt and the controls alone, so
`scenario._pde_advance` keeps stepping a plateau's BDF2 plan on its later
windows. The polariton time derivative is discretized so that the weighted
field sum is carried exactly through control rotations.
Both schemes are stable at any dt; `advective_cap`, one grid cell per step,
bounds the time error, which second order keeps below BE's at half that
step.

Each backward-channel row is divided by rho = r_g^2, which makes the matrix
column diagonally dominant for every r_g. alpha_+ + alpha_- + gamma2' = 1,
since the three share one denominator, so whenever c alpha / dtau >= xi alpha,
that is for dtau <= c, each column 1..m-2 exceeds the sum of its off-diagonal
magnitudes by 1 plus its sponge term. Both c are at least 1, and the cap and
the grid bound keep dtau at most dz <= 1/8. The pinned inflow row 0 has no
off-diagonals and is scaled to the smallest power of two at least as large
as the column-0 entries below it, and the last column has no rows below its
pivot. Partial pivoting then swaps no rows (Golub and Van
Loan, Matrix Computations), so `dgbtrf`'s factors A = L U have no fill-in.
`plan_steps` splits off U's diagonal, the pivots D: A = D L' U~ with
L' = D^-1 L D and U~ = D^-1 U, both unit triangular (the LDU form, Golub and
Van Loan). Each step scales the right-hand side by 1/D on its way into the
solution row and solves it in place with two unit-diagonal band sweeps,
which divide by nothing: `dtbsv` against the real factors without a
perturber, `ztbsv` against complex copies of them with one. A factorization
that swaps rows anyway is refused. The residual check runs on the unfactored
scaled system, which at r_g = 1 is bit for bit the unscaled one, so it also
catches a bad factor.
With alpha_- = 0 at a step's end (Omega_- = 0, single-control slow light)
the forward rows have no psi_minus term, so the matrix's only entries above
its diagonal are the backward chain A[2i+1, 2i+3], and an elimination
without row swaps adds none: U's offset-1 entries and its offset-2 entries
in even columns are exact zeros, and so are U~'s. The
upper sweep then changes only the backward unknowns, down the chain
U~[2i+1, 2i+3], and the plan solves it as one k = 1 sweep over the odd
entries of the solution row (incx = 2), N columns in place of 2N. It
subtracts the same products in the same order, and what it leaves out
subtracts zeros. `plan_steps` reads the case from U~ itself. Likewise the
residual forms no product of an all-zero band, and `polariton_field` no term
of zero weight; a zero left out can change only the sign of a zero.

`dgbtrf`, `dtbsv` and `ztbsv` are the only LAPACK/BLAS routines used. They are
scipy's f2py wrappers, taken from its `_flapack` and `_fblas` extension files
loaded by path, so that the `scipy.linalg` package is never imported: its
import pulls in numpy.f2py, numpy.testing, numpy.ma and numpy.random, about
half of the CLI's start-up.
"""

from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import CFLViolation, NonPhysicalParameter, SweepDivergence
from .medium import (
    ControlSchedule,
    MediumModel,
    PulseSpec,
    check_grid,
    coefficients,
    group_velocity,
    opens_stored,
    pulse_length,
    tau_increment,
    tau_rate_at,
)
from .spectral import release_projection


def _linalg_extension(name: str):
    """The extension module scipy.linalg.<name>, without importing the
    scipy.linalg package. Loading the file registers the module in
    `sys.modules`, so a later `import scipy.linalg` reuses it; an install
    without the file takes the ordinary import."""
    dotted = f"scipy.linalg.{name}"
    if dotted in sys.modules:
        return sys.modules[dotted]
    # find_spec("scipy.linalg...") would import scipy.linalg itself
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy.submodule_search_locations or ()) if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(dotted, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[dotted] = module
                return module
    return importlib.import_module(dotted)


_fblas = _linalg_extension("_fblas")
dtbsv, ztbsv = _fblas.dtbsv, _fblas.ztbsv
dgbtrf = _linalg_extension("_flapack").dgbtrf

RESIDUAL_TOL = 1e-10
# float64 values per residual-norm call: OpenBLAS's ddot spreads a vector of
# more than 10,000 over its worker threads, a cost and no gain to one step
NORM_PIECE = 8192
SPONGE_FRACTION = 0.05

MODE_PDE = "pde"
MODE_STORAGE = "storage"

# mass factors c of the two time schemes
BE = 1.0
BDF2 = 1.5


def polariton_field(alpha_plus: float, alpha_minus: float, psi_plus, psi_minus):
    """The polariton carried in transport by the two channel fields. A
    channel of zero weight adds only zeros, so it is left out."""
    if alpha_minus == 0.0:
        return alpha_plus * psi_plus
    if alpha_plus == 0.0:
        return alpha_minus * psi_minus
    return alpha_plus * psi_plus + alpha_minus * psi_minus


@dataclasses.dataclass
class FieldState:
    """Grid fields at lab time `t`; `spin` holds the coherence while stored.
    Stretched time has one home, `medium.tau_of_t`, which gives it at any t.
    In transport the polariton is `polariton_field` of the two fields; while
    stored it is `spin`, and the fields are zeros.

    `history` is the polariton one step back, phi_{n-1}, that a BDF2 step
    reads, rotated by the perturber's split like the fields it goes with;
    each step leaves it, and `store`, `release` and a new state have none.
    """

    medium: MediumModel
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    t: float
    mode: str = MODE_PDE
    spin: np.ndarray | None = None
    history: np.ndarray | None = None


def init_state(medium: MediumModel, schedule: ControlSchedule,
               pulse: PulseSpec) -> FieldState:
    """Starting fields, real: empty grid for injected pulses, on-branch
    Gaussian polariton for prepared ones. Either kind opens in storage, as
    the spin, when the controls start below the storage threshold."""
    check_grid(medium, pulse)
    t0 = schedule.t_start
    zero = np.zeros(medium.grid_points)
    phi = zero
    if pulse.prepared:
        l_o = pulse_length(medium, pulse)
        phi = pulse.amplitude * np.exp(
            -((medium.grid() - pulse.center) ** 2) / (2.0 * l_o * l_o))
    if opens_stored(medium, schedule):
        return FieldState(medium, zero.copy(), zero.copy(), t0,
                          mode=MODE_STORAGE, spin=phi)
    if not pulse.prepared:
        return FieldState(medium, zero.copy(), zero.copy(), t0)
    co = coefficients(medium, *schedule.values(t0))
    pp, pm = release_projection(medium, co, phi)
    return FieldState(medium, pp, pm, t0)


def source_amplitude(medium: MediumModel, pulse: PulseSpec, t: float,
                     omega_plus: float) -> float:
    """Boundary value of psi_plus at z = 0 feeding an injected pulse at lab
    time t, where the forward control is `omega_plus`: zero for a prepared
    pulse and below the storage threshold. `step` passes the control its
    plan holds for the step's end."""
    if pulse.prepared or omega_plus ** 2 < medium.storage_threshold:
        return 0.0
    # products, not powers: a square past the float range is inf, not an error
    lag = t - pulse.injection_time
    envelope = pulse.amplitude * math.exp(
        -(lag * lag) / (2.0 * pulse.duration * pulse.duration))
    return math.sqrt(medium.gamma) * envelope / omega_plus


def build_absorbers(medium: MediumModel):
    """(w_plus, w_minus) sponge profiles on the two outflow edges."""
    z = medium.grid()
    width = SPONGE_FRACTION * medium.domain_length
    strength = 20.0 / width
    w_plus = np.zeros(medium.grid_points)
    w_minus = np.zeros(medium.grid_points)
    right = z > medium.domain_length - width
    left = z < width
    w_plus[right] = strength * np.sin(
        0.5 * np.pi * (z[right] - (medium.domain_length - width)) / width) ** 2
    w_minus[left] = strength * np.sin(0.5 * np.pi * (width - z[left]) / width) ** 2
    return w_plus, w_minus


def advective_cap(medium: MediumModel, schedule: ControlSchedule, times) -> float:
    """Longest dt at the given times: one grid cell per step at the fastest
    of the group velocity and dtau/dt. Both time schemes are stable at any
    dt, so this is an accuracy cap, the step at which BDF2's time error
    stays below the first-order upwind error in z."""
    vmax = max(abs(group_velocity(medium, *schedule.values(t))) for t in times)
    rmax = max(tau_rate_at(medium, schedule, t) for t in times)
    return medium.dz / max(vmax, rmax, 1e-300)


@dataclasses.dataclass(frozen=True)
class StepPlan:
    """What every step of length dt shares within one constant-control window.

    `bands` holds the nonzeros of the implicit matrix, with the backward
    rows divided by rho and the inflow row pinned at its power-of-two scale,
    kept for the residual check: rows diag, sub and sup, where sub[j] and
    sup[j] are the one entry left and the one entry right of the diagonal
    in row j, A[j, j-2] and A[j, j+1] in a forward row j = 2i, A[j, j-1]
    and A[j, j+2] in a backward row j = 2i+1 (zero where the column falls
    outside the matrix, and in the pinned rows). The matrix is real; the
    bands hold it in the plan's dtype, so that no residual product mixes
    real and complex. `factors` holds that matrix as D L' U~: the
    unit-lower L' and unit-upper U~ band factors as Fortran (3, m) arrays,
    the layout `dtbsv` and `ztbsv` read with diag=1 (their diagonal rows
    hold ones), and the reciprocal pivots 1/D as an (m,) array. Everything
    is real without a perturber and complex with one. `upper_sweep` is the
    upper solve's (band, k, incx, offx): (U~, 2, 1, 0) in general, and
    (chain, 1, 2, 1) when U~'s only nonzeros above the diagonal are the
    backward chain U~[2i+1, 2i+3], as they are when alpha_- = 0 at the
    step's end; chain is the Fortran (2, N) unit band of that chain, and the
    sweep runs over the odd entries of the solution row. `split` is the
    perturber's per-step factor on psi_plus, or None without one. `mass` is
    the time scheme's factor c, `BE` or `BDF2`.

    `controls` holds the controls at both ends of the step the plan was
    built for; with c and dt they fix the matrix. `work` holds the
    right-hand side, solution, residual and product rows that each step
    overwrites, of the factors' dtype, which picks the sweep: `dtbsv` in
    float64 without a perturber, `ztbsv` in complex128 with one. The fields
    `step` leaves in the state are views of the solution row, so a field
    kept past the next step must be copied.

    The rest is what `step` reads on every call, made once with the plan:
    `alphas`, the mixing weights (alpha_+, alpha_-) at the step's start;
    `scale`, the right-hand side's factor 1/dtau (BE) or 2/dtau (BDF2);
    `pin`, the inflow row's scale bands[0, 0]; `rows`, the rhs, solution
    and residual rows of `work`; `halves`, the forward and backward halves
    of the rhs row and of the solution row; `residual`, the residual's terms
    below and above the diagonal, each as the (band, solution, product)
    triples of its bands that hold a nonzero and the (residual, product)
    pairs they add into (`_residual_side`); and `pieces`,
    the float views of the first three work rows that the norms take.
    """

    dt: float
    dtau: float
    mass: float
    alphas: tuple[float, float]
    controls: tuple[float, float, float, float]
    bands: np.ndarray
    factors: tuple[np.ndarray, np.ndarray, np.ndarray]
    upper_sweep: tuple[np.ndarray, int, int, int]
    split: np.ndarray | None
    work: np.ndarray
    scale: float
    pin: float
    rows: tuple[np.ndarray, np.ndarray, np.ndarray]
    halves: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    residual: tuple
    pieces: tuple[np.ndarray, ...]


def _residual_side(terms, total, part):
    """One side of the residual, below or above the diagonal, as `step` runs
    it, from its (band, solution, product, residual rows) terms: the
    (band, solution, product) triples of the bands that hold a nonzero, and
    the (residual, product) pairs they add into. With no band left out
    that is `total += part` over the whole side; otherwise each formed
    product adds into its own rows alone, since in the rows of a product
    left out `part` holds other values: the other side's products, or an
    earlier plan's."""
    live = [term for term in terms if term[0].any()]
    adds = (((total, part),) if len(live) == len(terms)
            else tuple((rows, out) for _, _, out, rows in live))
    return tuple(term[:3] for term in live), adds


def plan_steps(medium: MediumModel, schedule: ControlSchedule, t0: float,
               dt: float, w_plus, w_minus, perturber=None,
               last: StepPlan | None = None, mass: float = BE) -> StepPlan:
    """Check dt against `advective_cap` and factor the implicit operator of a
    step of length dt from t0 under the time scheme of mass factor `mass`.

    The plan serves every step of a window whose controls are constant, since
    all of them see the same matrix; on a ramp build one per step.
    `perturber` is an optional (density_array, exponent_scale) pair applied
    by operator splitting after the solve, with exponent_scale the complex
    per-atom-density rate divided by dtau. A plan is always built. `last`, a
    plan built for the same medium, absorbers and perturber, hands on its
    work rows, of which the new plan makes its own views; `last` must not
    step again. dtau is `medium.tau_increment`: on a step whose controls
    hold it is dt times the clock rate, the same bits from any t0; on a ramp
    it is `tau_of_t` over the step.
    """
    n = medium.grid_points
    dz = medium.dz

    t1 = t0 + dt
    cap = advective_cap(medium, schedule, (t0, 0.5 * (t0 + t1), t1))
    if dt > cap * (1.0 + 1e-6):
        raise CFLViolation(f"dt = {dt:g} exceeds advective bound {cap:g}")

    dtau = tau_increment(medium, schedule, t0, dt)
    if not dtau > 0.0:
        raise NonPhysicalParameter(
            f"a step of dt = {dt:g} from t0 = {t0:g} advances no stretched time")
    controls_old, controls = schedule.values(t0), schedule.values(t1)
    co_old = coefficients(medium, *controls_old)
    co = coefficients(medium, *controls)

    xp_am = medium.xi_plus * co.alpha_minus
    xp_ap = medium.xi_plus * co.alpha_plus
    rho = medium.rho
    g2p = co.gamma2_prime
    inv_dz = 1.0 / dz
    inv_dtau = mass / dtau

    m = 2 * n
    bands = np.zeros((3, m))
    diag, sub, sup = bands

    # forward-channel rows j = 2i: A[j, j-2] and A[j, j+1] off the diagonal
    diag[0::2] = inv_dz + xp_am + co.alpha_plus * inv_dtau + g2p + w_plus
    sup[0::2] = -xp_am + co.alpha_minus * inv_dtau
    sub[2::2] = -inv_dz

    # backward-channel rows j = 2i+1: A[j, j-1] and A[j, j+2], sign-flipped
    # so the diagonal is positive and divided by rho (xi_minus = rho
    # xi_plus): the right-hand side is then the forward rows' one, a
    # multiple of phi
    diag[1::2] = inv_dz / rho + xp_ap + co.alpha_minus * inv_dtau + g2p + w_minus / rho
    sub[1::2] = -xp_ap + co.alpha_plus * inv_dtau
    sup[1:-2:2] = -inv_dz / rho

    # boundary rows: inflow values pinned. Row 0 is scaled to the smallest
    # power of two no smaller than the entries below it in column 0, so it
    # stays the pivot row and rhs pin * source gives the source exactly
    mantissa, exponent = math.frexp(max(abs(sub[1]), abs(sub[2])))
    pin = math.ldexp(1.0, exponent - 1 if mantissa == 0.5 else exponent)
    diag[0] = pin
    sup[0] = 0.0
    diag[m - 1] = 1.0
    sub[m - 1] = 0.0

    # LAPACK band storage, A[i, j] at row 4 + i - j; rows 0-1 are dgbtrf's
    # room for fill-in, and the entries the rows above leave out are zeros
    ab = np.zeros((7, m), order="F")
    ab[2, 3::2] = sup[1:-2:2]
    ab[3, 1::2] = sup[0::2]
    ab[4, :] = diag
    ab[5, 0::2] = sub[1::2]
    ab[6, 0:-2:2] = sub[2::2]
    lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
    if info != 0:
        raise SweepDivergence(f"implicit step matrix is singular (dgbtrf info {info})")
    if not np.array_equal(piv, np.arange(m)):
        raise SweepDivergence(
            f"dgbtrf swapped rows of the step matrix at dt = {dt:g}, "
            f"dtau = {dtau:g}, controls ({controls_old[0]:g}, "
            f"{controls_old[1]:g}) -> ({controls[0]:g}, {controls[1]:g}): "
            f"it is not column diagonally dominant")
    # no swaps, so rows 0-1 took no fill-in: U sits in rows 2-4 with the
    # pivots d in row 4, and L's multipliers in rows 5-6. A = L U = D L' U~
    # with L' = D^-1 L D and U~ = D^-1 U, both unit triangular, in the lower
    # and upper band layouts dtbsv and ztbsv read (A[i, j] at row i - j and
    # 2 + i - j). L' is L times the pivot ratio, which keeps the solve
    # closer to the unscaled sweeps than (L d_j) / d_i does. Only a
    # perturber's split makes the fields complex
    dtype = float if perturber is None else complex
    pivots = lu[4]
    lower = np.zeros((3, m), dtype=dtype, order="F")
    upper = np.zeros((3, m), dtype=dtype, order="F")
    lower[0] = upper[2] = 1.0
    # each formed in its factor row, with no temporary array
    for row, k in ((1, 1), (2, 2)):
        np.divide(pivots[:-k], pivots[k:], out=lower[row, :-k])
        lower[row, :-k] *= lu[4 + k, :-k]
    for row, k in ((1, 1), (0, 2)):
        np.divide(lu[4 - k, k:], pivots[:-k], out=upper[row, k:])
    inv_pivots = np.empty(m, dtype=dtype)
    np.divide(1.0, pivots, out=inv_pivots)
    # U~ reaches the forward unknowns only through its offset-1 entries and
    # its offset-2 entries in even columns. Where all of them are zeros, as
    # they are when alpha_- = 0 at the step's end, the upper solve leaves the
    # forward unknowns as they are and is one k = 1 sweep down the backward
    # chain U~[2i+1, 2i+3], over the odd entries of the solution row
    if upper[1].any() or upper[0, 0::2].any():
        upper_sweep = (upper, 2, 1, 0)
    else:
        upper_sweep = (np.asfortranarray(upper[0::2, 1::2]), 1, 2, 1)
    # the factored band array is spent: free it before the split is made.
    # A perturbed plan keeps its bands complex in place of the real ones
    del ab, lu, pivots
    bands = bands.astype(dtype, copy=False)
    diag, sub, sup = bands
    work = np.empty((4, m), dtype=dtype) if last is None else last.work
    rhs, u, res, prod = work
    # a forward row 2i reaches u[2i-2] and u[2i+1], a backward row 2i+1
    # u[2i] and u[2i+3]; each row adds its lower term before its upper one
    residual = (diag,
                _residual_side(((sub[2::2], u[:-2:2], prod[2::2], res[2::2]),
                                (sub[1::2], u[0::2], prod[1::2], res[1::2])),
                               res[1:], prod[1:]),
                _residual_side(((sup[0::2], u[1::2], prod[0::2], res[0::2]),
                                (sup[1:-2:2], u[3::2], prod[1:-2:2], res[1:-2:2])),
                               res[:-1], prod[:-1]))
    floats = work[:3].view(float)
    pieces = tuple(floats[:, a:a + NORM_PIECE]
                   for a in range(0, floats.shape[1], NORM_PIECE))

    split = None
    if perturber is not None:
        density, rate = perturber
        split = rate * density
        split *= dtau
        np.exp(split, out=split)
    return StepPlan(dt, dtau, mass, (co_old.alpha_plus, co_old.alpha_minus),
                    (*controls_old, *controls), bands,
                    (lower, upper, inv_pivots), upper_sweep, split, work,
                    1.0 / dtau if mass == BE else 2.0 * (1.0 / dtau), pin,
                    (rhs, u, res), (rhs[0::2], rhs[1::2], u[0::2], u[1::2]),
                    residual, pieces)


def step(state: FieldState, plan: StepPlan, pulse: PulseSpec) -> None:
    """Advance the state by one implicit step of `plan`, to lab time
    t + plan.dt; the step's stretched-time increment is `plan.dtau`.
    The step reads the state, the pulse and the plan alone: its controls,
    of which the forward one at the step's end feeds `source_amplitude`,
    its constants and its views of the work rows.

    The step solves A u = rhs in the plan's work rows and checks the
    residual A u - rhs on the unfactored matrix, from the nonzeros
    `plan.bands` keeps, in the order of the five-band product, whose bits
    it keeps. The check fails on a residual above RESIDUAL_TOL times
    |rhs| + |u|, on a NaN and on an infinite norm; all-zero fields pass.
    The norms are taken in pieces of at most NORM_PIECE values, so that
    OpenBLAS never spreads one over its worker threads.
    """
    if state.mode != MODE_PDE:
        raise NonPhysicalParameter("step() requires transport mode, not storage")
    if plan.split is None and "c" in (
            state.psi_plus.dtype.kind, state.psi_minus.dtype.kind,
            state.history is not None and state.history.dtype.kind):
        raise NonPhysicalParameter(
            "a step without a perturber takes real fields, and this state's "
            "are complex: only a perturber's split imprints a phase")
    t1 = state.t + plan.dt
    a_plus, a_minus = plan.alphas
    rhs, u, res = plan.rows
    rhs_plus, rhs_minus, psi_plus, psi_minus = plan.halves

    # phi_n, and the next step's phi_{n-1}: phi_n itself, or with a
    # perturber phi_n carried through this step's split, so that BDF2 does
    # not extrapolate the imprinted phase a second time
    if plan.split is None:
        phi = history = polariton_field(a_plus, a_minus, state.psi_plus,
                                        state.psi_minus)
    else:
        minus = a_minus * state.psi_minus
        phi = a_plus * state.psi_plus
        phi += minus
        history = state.psi_plus * plan.split
        history *= a_plus
        history += minus
    # every row's right-hand side is phi_n / dtau (BE) or
    # (2 phi_n - phi_{n-1} / 2) / dtau (BDF2)
    if plan.mass == BE:
        terms = phi
    elif state.history is None:
        raise NonPhysicalParameter("a BDF2 step needs the field one step back")
    else:
        terms = state.history * -0.25
        terms += phi
    # two strided products cost less than one and a strided copy
    np.multiply(terms, plan.scale, out=rhs_plus)
    np.multiply(terms, plan.scale, out=rhs_minus)
    rhs[0] = plan.pin * source_amplitude(state.medium, pulse, t1, plan.controls[2])
    rhs[-1] = 0.0

    # A u = rhs is L' U~ u = D^-1 rhs: scale by the reciprocal pivots on the
    # way into the solution row, then two unit-diagonal sweeps, the upper
    # one as the plan sets it out
    lower, _, inv_pivots = plan.factors
    upper, k, incx, offx = plan.upper_sweep
    sweep = dtbsv if plan.split is None else ztbsv
    np.multiply(rhs, inv_pivots, out=u)
    sweep(2, lower, u, lower=1, diag=1, overwrite_x=1)
    sweep(k, upper, u, incx=incx, offx=offx, diag=1, overwrite_x=1)

    # explicit residual of the solved system, in the plan's work rows, from
    # the nonzeros the plan keeps, each row's lower term added before its
    # upper one, as a five-band product does, which only adds zeros besides
    diag, *sides = plan.residual
    np.multiply(diag, u, out=res)
    res -= rhs
    for products, adds in sides:
        for band, x, out in products:
            np.multiply(band, x, out=out)
        for total, part in adds:
            total += part
    # written so that a NaN or an inf anywhere fails the check; all-zero
    # fields pass. The squared norms of rhs, u and res come from vecdot
    # calls over float views, BLAS's ddot, each on at most NORM_PIECE values
    first, *rest = plan.pieces
    sums = np.vecdot(first, first)
    for piece in rest:
        sums += np.vecdot(piece, piece)
    r2, x2, e2 = sums.tolist()
    scale = math.sqrt(r2) + math.sqrt(x2)
    err = math.sqrt(e2)
    if not (err <= RESIDUAL_TOL * scale and math.isfinite(scale)):
        raise SweepDivergence(
            f"implicit step residual {err:.3g} exceeds {RESIDUAL_TOL:g} "
            f"times the solution scale {scale:.3g}")

    state.psi_plus = psi_plus
    state.psi_minus = psi_minus
    state.history = history
    if plan.split is not None:
        psi_plus *= plan.split

    state.t = t1


def store(state: FieldState, schedule: ControlSchedule) -> None:
    """Map the fields onto the stored coherence at the current time."""
    co = coefficients(state.medium, *schedule.values(state.t))
    state.spin = polariton_field(co.alpha_plus, co.alpha_minus,
                                 state.psi_plus, state.psi_minus)
    state.psi_plus = np.zeros_like(state.psi_plus)
    state.psi_minus = np.zeros_like(state.psi_minus)
    state.history = None
    state.mode = MODE_STORAGE


def storage_advance(state: FieldState, dt: float) -> None:
    """Decay the stored coherence at gamma2 over lab time dt."""
    if state.mode != MODE_STORAGE:
        raise NonPhysicalParameter("storage_advance() outside storage mode")
    state.spin = state.spin * math.exp(-state.medium.gamma2 * dt)
    state.t += dt


def release(state: FieldState, schedule: ControlSchedule) -> None:
    """Repopulate the fields from the stored coherence on the branch."""
    if state.mode != MODE_STORAGE:
        raise NonPhysicalParameter("release() outside storage mode")
    co = coefficients(state.medium, *schedule.values(state.t))
    pp, pm = release_projection(state.medium, co, state.spin)
    state.psi_plus = pp
    state.psi_minus = pm
    state.spin = None
    state.history = None
    state.mode = MODE_PDE

