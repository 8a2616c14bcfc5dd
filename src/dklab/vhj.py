"""Cole-Hopf solver for the viscous Hamilton-Jacobi flow.

The flow solved here is

    dv/dt = (alpha/2) v'' - (1/2) (v')^2,   v(0) = f,

whose unique classical solution is v(t) = -alpha * log(P_t exp(-f/alpha))
with P_t the heat flow of generator (alpha/2) Laplacian.  exp(-f/alpha) is
not a finite Fourier sum, so it is sampled on the domain grid and projected
onto modes up to grid_size/2 - 1; for smooth periodic data on a grid of at
least 256 cells the measured projection error sits near round-off, and the
field reports it (VhjField.projection_error) rather than assuming it away.

Beyond the solution itself, this module certifies the properties the
analysis leans on: the PDE residual vanishes at second order in the
time-difference step, values stay inside [inf f, sup f], and the squared
gradient obeys both the sharp semigroup bound and the coarse
exp((2/alpha) * diam f) * sup Gamma f bound (flat space, so no curvature
factor).

Each quantity is computed once.  vhj_residual projects exp(-f/alpha) once
and propagates that projection to t and to every t +- dt, with the field
at t shared by all levels; every field is bit for bit the one cole_hopf
gives at its time, and every time is refused as cole_hopf refuses it.  A
VhjField caches, as read-only arrays on the instance, f on the 4x refined
grid (read by projection_error and by both checks), w' on its grid
(shared by gradient_squared and laplacian_values) and the residual's two
spatial terms.  dataclasses.replace builds a new instance, which derives
all of them afresh from its own fields.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .torus import FourierFunction, TorusDomain, carre_du_champ, heat_semigroup

_EXTREMA_OVERSAMPLE = 4
_FLOOR_EPS = 16 * np.finfo(float).eps  # residual floor, in units of max|V| / dt
# -alpha log w carries f with a rounding error of about alpha * eps, so
# below this max|f| / alpha it keeps fewer than 12 of f's bits.  The
# extremum check was measured failing a correct solver only below 1.4e-15
# (t >= 1e-4, 201 random functions, grids 16 and 64).
_MIN_F_OVER_ALPHA = 2.0**-40
# the extremum check's projection bound is this times alpha err / w_lo: at
# t = 0 on grids 16 and 32 the measured violations reach 0.99999 of
# alpha err / w_lo (1000 random functions, alpha 0.3 to 1000)
_PROJECTION_MARGIN = 1.0625


@dataclass(frozen=True)
class VhjField:
    """Cole-Hopf solution at one time, with its exponential transform.

    values = -alpha * log(exp_transform) on the grid; transform is the
    propagated Fourier representation of P_t exp(-f/alpha), positive
    everywhere, and allows exact off-grid evaluation.  projection is the
    unpropagated one, exp(-f/alpha) projected onto the grid's modes.

    Samples derived from these fields are cached on the instance as
    read-only arrays (see the module docstring); dataclasses.replace gives
    an instance that derives them afresh.
    """

    dom: TorusDomain
    alpha: float
    t: float
    f: FourierFunction
    transform: FourierFunction
    projection: FourierFunction
    values: np.ndarray
    exp_transform: np.ndarray

    @functools.cached_property
    def _f_fine(self) -> np.ndarray:
        """f on the 4x refined grid, from one inverse FFT (read-only).

        f's modes lie below grid_size/2, so these are also the points
        f.extrema(4 * grid_size) takes its range over.
        """
        return _read_only(self.f.sample(TorusDomain(_EXTREMA_OVERSAMPLE * self.dom.grid_size)))

    @functools.cached_property
    def projection_error(self) -> float:
        """max|projection - exp(-f/alpha)| on the 4x refined grid.

        The heat flow is a positive contraction, so it moves w by at most
        this, and V_t f = -alpha log w by at most alpha err / w_lo.  It is
        taken between the grid points, since at them the projection
        interpolates exp(-f/alpha) and the gap reads round-off even on a
        coarse grid that misses it by orders of magnitude.
        """
        fine = TorusDomain(_EXTREMA_OVERSAMPLE * self.dom.grid_size)
        exact = np.exp(-self._f_fine / self.alpha)
        return float(np.max(np.abs(self.projection.sample(fine) - exact)))

    @functools.cached_property
    def _transform_slope(self) -> np.ndarray:
        """w' on the grid, w the transform (read-only)."""
        return _read_only(self.transform.derivative().sample(self.dom))

    @functools.cached_property
    def _pde_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(alpha/2) V'' and (1/2) Gamma V on the grid, the residual's spatial terms."""
        return (_read_only(0.5 * self.alpha * self.laplacian_values()),
                _read_only(0.5 * self.gradient_squared()))

    def evaluate(self, x):
        """V_t f at arbitrary points, through the propagated transform."""
        return -self.alpha * np.log(self.transform.evaluate(x))

    def gradient_squared(self) -> np.ndarray:
        """Gamma V_t f on the grid: alpha^2 (w'/w)^2 with w the transform."""
        return (self.alpha * self._transform_slope / self.exp_transform) ** 2

    def laplacian_values(self) -> np.ndarray:
        """Second derivative of V_t f on the grid, exact from the transform."""
        w = self.exp_transform
        wp = self._transform_slope
        wpp = self.transform.derivative().derivative().sample(self.dom)
        return -self.alpha * (wpp / w - (wp / w) ** 2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _refuse(alpha: float, t: float) -> None:
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")


def _project(dom: TorusDomain, f: FourierFunction, alpha: float) -> FourierFunction:
    """exp(-f/alpha) sampled on the grid and projected onto its modes."""
    u0 = np.exp(-f.sample(dom) / alpha)
    return FourierFunction.from_grid(u0, max_mode=dom.max_mode)


def _propagate(
    dom: TorusDomain, f: FourierFunction, alpha: float, t: float, u0_hat: FourierFunction
) -> VhjField:
    """The field at time t from the projection u0_hat = _project(dom, f, alpha)."""
    _refuse(alpha, t)
    w = heat_semigroup(u0_hat, diffusivity=alpha, t=t)
    wg = w.sample(dom)
    if np.any(wg <= 0):
        raise ArithmeticError(
            "propagated exponential transform lost positivity; grid too coarse"
        )
    return VhjField(
        dom=dom,
        alpha=float(alpha),
        t=float(t),
        f=f,
        transform=w,
        projection=u0_hat,
        values=-alpha * np.log(wg),
        exp_transform=wg,
    )


def cole_hopf(
    dom: TorusDomain, f: FourierFunction, alpha: float, t: float
) -> VhjField:
    """Solve the viscous Hamilton-Jacobi flow by the Cole-Hopf substitution.

    Parameters
    ----------
    dom : TorusDomain
        Grid used for the sample-and-project step.
    f : FourierFunction
        Initial datum (bounded automatically, being a finite Fourier sum).
    alpha : float
        Positive viscosity parameter.
    t : float
        Nonnegative time.
    """
    _refuse(alpha, t)
    return _propagate(dom, f, alpha, t, _project(dom, f, alpha))


@dataclass(frozen=True)
class ResidualLevel:
    dt: float
    residual_sup: float


@dataclass(frozen=True)
class ResidualReport:
    """Sup-norm PDE residuals per time-step refinement, with observed orders."""

    levels: list[ResidualLevel]
    observed_orders: list[float]


def residual_from_fields(fields: list[VhjField]) -> float:
    """Sup-norm residual of the PDE at the middle of >= 3 equispaced fields.

    The time derivative is a centered difference across the first and last
    field; spatial terms are evaluated spectrally (exactly) at the middle
    one.
    """
    if len(fields) < 3:
        raise ValueError("need at least 3 time levels for a centered difference")
    ts = np.array([fld.t for fld in fields])
    dts = np.diff(ts)
    if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15):
        raise ValueError("fields must be equally spaced in time")
    mid = len(fields) // 2
    lo, hi = fields[mid - 1], fields[mid + 1]
    half_laplacian, half_gamma = fields[mid]._pde_terms
    dvdt = (hi.values - lo.values) / (hi.t - lo.t)
    resid = dvdt - half_laplacian + half_gamma
    return float(np.max(np.abs(resid)))


def vhj_residual(
    dom: TorusDomain,
    f: FourierFunction,
    alpha: float,
    t: float,
    dt0: float = 1e-3,
    num_levels: int = 3,
) -> ResidualReport:
    """Residual of the computed solution under halving of the FD time step.

    For each level the residual is measured from the field triple
    (t - dt, t, t + dt); the spatial terms carry no discretization error,
    so the residual is the centered-difference error and should shrink at
    second order.  A t that is not finite, or so large that t +- dt rounds
    to t at the finest dt, raises ValueError before any work; a residual
    that is still not finite raises ArithmeticError.  A residual of at most
    16 eps max|V| / dt, with max|V| over the level's three fields, is the
    round-off floor of the centered difference (exactly zero included),
    and the order into such a level is inf.

    exp(-f/alpha) is projected once and propagated to every time; the
    field at t is shared by all levels.  Each field is the one cole_hopf
    gives at its time, and each time is refused as cole_hopf refuses it.
    """
    if num_levels < 2:
        raise ValueError("need at least 2 refinement levels to observe an order")
    dt = dt0 / 2 ** (num_levels - 1)
    if not t - dt < t < t + dt:  # also false for a t that is nan or inf
        raise ValueError(f"t = {t}: must be finite, with t - {dt} < t < t + {dt} (finest step)")
    _refuse(alpha, t - dt0)  # the earliest time, refused before any work
    u0_hat = _project(dom, f, alpha)
    center = _propagate(dom, f, alpha, t, u0_hat)
    levels, at_floor = [], []
    for j in range(num_levels):
        dt = dt0 / 2**j
        triple = [_propagate(dom, f, alpha, t - dt, u0_hat), center,
                  _propagate(dom, f, alpha, t + dt, u0_hat)]
        residual = residual_from_fields(triple)
        if not np.isfinite(residual):
            raise ArithmeticError(f"vhj residual is {residual} at t = {t}, dt = {dt}")
        levels.append(ResidualLevel(dt=dt, residual_sup=residual))
        v_max = max(float(np.max(np.abs(fld.values))) for fld in triple)
        at_floor.append(residual <= _FLOOR_EPS * v_max / dt)
    orders = []
    for a, b, floor in zip(levels, levels[1:], at_floor[1:]):
        if floor:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log2(a.residual_sup / b.residual_sup)))
    return ResidualReport(levels=levels, observed_orders=orders)


@dataclass(frozen=True)
class ExtremumReport:
    passed: bool
    inf_f: float
    sup_f: float
    inf_v: float
    sup_v: float
    projection_bound: float


def check_extremum_principles(field: VhjField, slack: float = 1e-12) -> ExtremumReport:
    """inf f <= inf V_t f and sup V_t f <= sup f on a 4x refined grid.

    Both ranges are taken there, from one inverse FFT of each trigonometric
    polynomial, so that its true range is bounded safely; V_t f's is the
    transform's range mapped through the decreasing w -> -alpha log w.
    An alpha so large that max|f| / alpha < 2**-40 raises ArithmeticError:
    -alpha log w then keeps fewer than 12 bits of f, and the verdict would
    judge the rounding, not the solver.  So does a transform that is not
    positive on the refined grid, as cole_hopf does on its own grid.

    The principles hold for the exact flow of exp(-f/alpha), while the
    field propagates its projection onto the grid's modes.  The heat flow
    is a positive contraction, so it moves w by at most the projection
    error err = max|projection - exp(-f/alpha)|, and -alpha log w by at
    most alpha err / w_lo, with err = field.projection_error, taken on the
    same refined grid; the slack is widened by that bound, with a margin of
    _PROJECTION_MARGIN, and the report gives it as projection_bound.
    """
    fine = TorusDomain(_EXTREMA_OVERSAMPLE * field.dom.grid_size)
    inf_f, sup_f = float(field._f_fine.min()), float(field._f_fine.max())
    f_max = max(-inf_f, sup_f)  # max|f|
    if f_max < _MIN_F_OVER_ALPHA * field.alpha:
        raise ArithmeticError(
            f"alpha = {field.alpha}: max|f|/alpha = {f_max / field.alpha:.3g} is below "
            "2**-40, so -alpha log w cannot carry f to the extremum check"
        )
    w = field.transform.sample(fine)
    w_lo, w_hi = float(w.min()), float(w.max())
    if not w_lo > 0:
        raise ArithmeticError(
            "propagated exponential transform lost positivity between grid points; "
            "grid too coarse"
        )
    inf_v, sup_v = (float(v) for v in -field.alpha * np.log([w_hi, w_lo]))
    bound = _PROJECTION_MARGIN * field.alpha * field.projection_error / w_lo
    tol = slack + bound
    ok = (inf_f <= inf_v + tol) and (sup_v <= sup_f + tol)
    return ExtremumReport(passed=ok, inf_f=inf_f, sup_f=sup_f, inf_v=inf_v, sup_v=sup_v,
                          projection_bound=bound)


@dataclass(frozen=True)
class GradientReport:
    passed: bool
    passed_sharp: bool
    coarse_bound: float
    max_gradient_sq: float
    max_sharp_violation: float


def check_gradient_estimate(field: VhjField, slack: float = 1e-8) -> GradientReport:
    """Both forms of the gradient estimate on the grid.

    Coarse: Gamma V_t f <= exp((2/alpha) diam f) * sup Gamma f.
    Sharp:  Gamma V_t f <= alpha^2 (P_t u)^{-2} P_t Gamma u with
    u = exp(-f/alpha); Gamma u is sampled exactly and propagated
    spectrally.
    """
    dom, alpha, f = field.dom, field.alpha, field.f
    gv = field.gradient_squared()
    inf_f, sup_f = float(field._f_fine.min()), float(field._f_fine.max())
    gf = carre_du_champ(f)
    _, sup_gf = gf.extrema(_EXTREMA_OVERSAMPLE * dom.grid_size)
    coarse = np.exp((2.0 / alpha) * (sup_f - inf_f)) * sup_gf
    ok_coarse = bool(np.all(gv <= coarse + slack))

    fp = f.derivative().sample(dom)
    gamma_u = np.exp(-2.0 * f.sample(dom) / alpha) * (fp / alpha) ** 2
    gamma_u_hat = FourierFunction.from_grid(gamma_u, max_mode=dom.max_mode)
    pt_gamma_u = heat_semigroup(gamma_u_hat, diffusivity=alpha, t=field.t).sample(dom)
    try:
        alpha_sq = alpha**2  # a Python float: ** raises OverflowError, not inf
    except OverflowError as exc:
        raise ArithmeticError(f"alpha = {alpha}: alpha^2 in the sharp gradient estimate "
                              "is not finite") from exc
    sharp = alpha_sq * pt_gamma_u / field.exp_transform**2
    viol = float(np.max(gv - sharp))
    ok_sharp = viol <= slack
    return GradientReport(
        passed=ok_coarse,
        passed_sharp=ok_sharp,
        coarse_bound=float(coarse),
        max_gradient_sq=float(np.max(gv)),
        max_sharp_violation=viol,
    )
