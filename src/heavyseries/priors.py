"""Tail families, scaling rules, assembled series priors and the grammar
of their names.

A series prior draws coefficient k as f_k = sigma_k * zeta_k with zeta
i.i.d. from a symmetric tail density h.  Heavy families certify the three
structural conditions used throughout:

  (D)   h symmetric, positive, decreasing on (0, inf);
  (E)   a polylog envelope log(1/h(x)) <= c1 (1 + log^{1+kappa}(1+x));
  (T)   a Cauchy-type tail bound x * int_x^inf h <= c2 for x >= 1.

The Gaussian family violates the envelope (its log-density decays
quadratically), so it is flagged non-heavy and only admissible in the
hierarchical baseline prior.

The horseshoe density has the closed form (Carvalho, Polson & Scott 2010)

  h(t) = (2 pi^3)^{-1/2} e^z E1(z),   z = t^2/2,

evaluated entirely in the log domain from log|t|, so no magnitude of t can
overflow.  E1 needs no special-function library: a power series about 0
for z <= 1, a continued fraction for 1 < z <= 700 and an asymptotic series
beyond (see `_log_exp_e1` and `HorseshoeTail`), so the package runs on
numpy alone.  Every value can be cross-checked against the analytic sandwich

  K/tau * log(1 + 4 tau^2/t^2) <= h_tau(t) <= 2K/tau * log(1 + 2 tau^2/t^2),

with K = (2 pi)^{-3/2}.
"""

import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import rng, wavelets
from .errors import InvalidParameterError, ShapeError, require_integer

LOG_TWO = math.log(2.0)
_HS_K = (2.0 * math.pi) ** -1.5  # sandwich constant

# E1(z) = -gamma - log z - sum_{k>=1} (-z)^k / (k k!): the coefficients
# 1 / (k k!) with their signs, k = 20 down to 1, as a polynomial in z; the
# first omitted term is below 4e-20 for z <= 1
_E1_SERIES = [(-1) ** k / (k * math.factorial(k)) for k in range(20, 0, -1)]
# (largest z, depth) of the continued fraction's bands above z = 1.  It
# converges slowest at z = 1, where depth 100 is within 3.4e-16 of
# log(e^z E1(z)) (mpmath, 40 digits); each later band's depth is about
# 20% above the least that matches depth 100's accuracy across the band,
# so a value far from z = 1 costs a fraction of the steps
_E1_FRACTION_BANDS = ((2.0, 100), (4.0, 60), (8.0, 32), (16.0, 20),
                      (math.inf, 12))


def _log_exp_e1(z):
    """log(e^z E1(z)) for an array of z in (0, 700], to about 1e-15.

    For z <= 1 the power series of E1 about 0; above it the continued
    fraction e^z E1(z) = 1/(z + 1/(1 + 1/(z + 2/(1 + 2/(z + ...))))),
    evaluated backward in its even contraction 1/(z + 1 - 1/(z + 3 -
    4/(z + 5 - ...))) at a depth fixed by the band z falls in, whose log
    is taken directly.  Each value depends on its own z alone.
    """
    # NaN falls in no band below and keeps its NaN
    out = np.full_like(z, np.nan)
    low = z <= 1.0
    if low.any():
        zl = z[low]
        out[low] = zl + np.log(
            -np.euler_gamma - np.log(zl) - zl * np.polyval(_E1_SERIES, zl))
    if low.all():
        return out
    lower = 1.0
    for upper, depth in _E1_FRACTION_BANDS:
        band = (z > lower) & (z <= upper)
        lower = upper
        if band.any():
            zb = z[band]
            t = zb + (2 * depth + 1)
            for k in range(depth, 0, -1):
                t = zb + (2 * k - 1) - k * k / t
            out[band] = -np.log(t)
    return out


# --------------------------------------------------------------------------
# Tail families
# --------------------------------------------------------------------------


class TailFamily:
    """Base class; subclasses write their log-density once, in
    log_density_log_abs (NaN at NaN), and provide sampling."""

    name = "abstract"
    is_heavy = False
    # (E) envelope constants (c1, kappa) and (T) constant c2, with margin;
    # None when the family certifies no heavy-tail bound.
    envelope = None
    tail_bound_c2 = None

    def log_density(self, x):
        """log h(x), from log_density_log_abs(log|x|).

        Raises InvalidParameterError where h(x) is infinite: the
        horseshoe's pole at x = 0.
        """
        with np.errstate(divide="ignore"):
            out = self.log_density_log_abs(np.log(np.abs(x, dtype=float)))
        if np.any(out == np.inf):
            raise InvalidParameterError(f"{self.name} density has a pole at 0")
        return out

    def tail_mass(self, x):
        """P(T > x) = int_x^inf h for each x, 0.5 at x = 0.

        Integrates h(e^u) e^u over u = log t with 16-point Gauss-Legendre
        panels at most 1 wide, from log|x| to max(log|x|, 0) + 45; the
        mass beyond is below 1e-19 for every tail here.  Negative x take
        1 minus the mass at |x|.
        """
        x = np.asarray(x, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        mass = np.full(x.shape, 0.5)
        for i, xi in np.ndenumerate(x):
            if xi == 0.0:
                continue
            lo = math.log(abs(xi))
            hi = max(lo, 0.0) + 45.0
            edges = np.linspace(lo, hi, math.ceil(hi - lo) + 1)
            half = np.diff(edges)[:, None] / 2.0
            u = (edges[:-1, None] + half + half * nodes).ravel()
            mass[i] = np.sum((half * weights).ravel()
                             * np.exp(self.log_density_log_abs(u) + u))
        mass = np.where(x < 0, 1.0 - mass, mass)
        return mass if mass.ndim else float(mass)

    def sample(self, generator, size):
        raise NotImplementedError

    def log_density_log_abs(self, log_abs_x):
        """log h at |x| = exp(log_abs_x), exact for any real log_abs_x,
        where |x| itself may overflow or underflow the double range."""
        raise NotImplementedError

    def log_density_mixing(self, u):
        """log p(u), u = log lambda, of the tail as the normal scale mixture
        h(x) = int p(u) N(x; 0, e^{2u}) du: all `quadrature` reads of it."""
        raise NotImplementedError

    def log_density_scaled(self, theta, log_scale):
        """log h(theta / sigma), safely for any magnitude ratio; sigma =
        exp(log_scale) is one scale or one per element of theta.

        Metropolis's one entry point.  Exact zeros reach the engine as
        log 0 = -inf, which every tail maps to log h(0): +inf at the
        horseshoe's integrable pole.
        """
        with np.errstate(divide="ignore"):
            return self._engine_log_abs(np.log(np.abs(theta)) - log_scale)

    def _engine_log_abs(self, log_abs_x):
        # what log_density_scaled evaluates; a tail may put a faster
        # approximation of log_density_log_abs here
        return self.log_density_log_abs(log_abs_x)

    def __repr__(self):
        return f"<tail {self.name}>"


class StudentTail(TailFamily):
    """Student t with df >= 1 degrees of freedom (df = 1 is Cauchy)."""

    is_heavy = True

    def __init__(self, df=3.0):
        if not df >= 1:
            raise InvalidParameterError("Student tails need df >= 1")
        self.df = float(df)
        self.name = f"student-{df:g}"
        self._log_norm = (
            math.lgamma((self.df + 1) / 2.0)
            - math.lgamma(self.df / 2.0)
            - 0.5 * math.log(self.df * math.pi)
        )
        self.envelope = (self.df + 2.0 + abs(self._log_norm), 0.0)
        # x * sf(x) peaks at moderate x and decays for df > 1; for df = 1
        # it increases to 1/pi, so that case carries a 10% margin.
        self.tail_bound_c2 = 1.1 / math.pi if self.df == 1.0 else 0.5

    def log_density_log_abs(self, log_abs_x):
        u = np.asarray(log_abs_x, dtype=float)
        # past |x| = e^150, log1p(x^2/df) is log(x^2/df) to double
        # precision, and further out x * x overflows
        big = u > 150.0
        if big.any():
            return np.where(big, self._log_norm - (self.df + 1) * (
                u - 0.5 * math.log(self.df)),
                self.log_density_log_abs(np.minimum(u, 150.0)))
        x = np.exp(u)
        return self._log_norm - 0.5 * (self.df + 1) * np.log1p(x * x / self.df)

    def log_density_mixing(self, u):
        # 1/lambda^2 = e^{-2u} ~ Gamma(df/2, rate df/2); below u = -354,
        # where e^{-2u} would overflow, the density is 0 to any precision
        half = 0.5 * self.df
        return (LOG_TWO + half * math.log(half) - math.lgamma(half)
                - self.df * np.asarray(u) - half * np.exp(
                    -2.0 * np.maximum(u, -354.0)))

    def sample(self, generator, size):
        return generator.standard_t(self.df, size)


class CauchyTail(StudentTail):
    def __init__(self):
        super().__init__(df=1.0)
        self.name = "cauchy"


class GaussianTail(TailFamily):
    """Standard normal; light-tailed, admissible only as a baseline."""

    name = "gaussian"
    is_heavy = False

    def log_density_log_abs(self, log_abs_x):
        u = np.asarray(log_abs_x, dtype=float)
        # from u = 154 on x^2 is held at 1e308, so log h stays finite
        expo = np.where(u >= 154.0, 308.0 * math.log(10.0), 2.0 * u)
        return -0.5 * np.exp(expo) - 0.5 * math.log(2 * math.pi)

    def log_density_mixing(self, u):
        # the point mass at lambda = 1: log 1 at u = 0, log 0 elsewhere
        return np.where(np.asarray(u) == 0.0, 0.0, -np.inf)

    def sample(self, generator, size):
        return generator.standard_normal(size)


class HorseshoeTail(TailFamily):
    """Unit-scale horseshoe: normal scale mixture over a half-Cauchy.

    The density has the closed form h(t) = (2 pi^3)^{-1/2} e^z E1(z),
    z = t^2/2, with a logarithmic pole at 0 (h(t) ~ (2 pi^3)^{-1/2}
    (-2 log t + log 2 - gamma)) and Cauchy-like tails (h(t) ~ 4K/t^2).
    `log_density_log_abs` evaluates it to about 1e-15 absolute in log h,
    with numpy alone: log(e^z E1(z)) is -gamma - log z below z = e^-700,
    `_log_exp_e1` (E1's power series for z <= 1, its continued fraction
    above, at depth 100 near z = 1 and less further out) up to z = 700,
    and the asymptotic series in 1/z beyond, where e^z would overflow.
    Metropolis (`log_density_scaled`) uses a cached cubic spline over
    log|t| on [-80, 80] instead, built lazily from the closed form at
    knots 0.005 apart.  It is a local cubic Hermite fit: each knot's
    slope is the five-point central difference of the closed form,
    evaluated at two more knots past each end.  It reproduces the closed
    form at its knots and is within 1e-12 of it between them (7.8e-13
    measured); each evaluation finds its interval by direct indexing of
    the uniform knots, bit-identical to a search such as scipy's `PPoly`.
    """

    name = "horseshoe"
    is_heavy = True
    envelope = (4.5, 0.0)
    tail_bound_c2 = 4.0 * _HS_K * 1.1

    _LOG_NORM = -0.5 * math.log(2.0 * math.pi**3)
    # e^z E1(z) ~ (1/z) sum_{k<12} (-1)^k k! / z^k, as a polynomial in 1/z,
    # highest power first; the first omitted term is below 1e-25 for z > 700
    _ASYMPTOTIC = [(-1) ** k * math.factorial(k) for k in range(11, -1, -1)]
    _spline = None
    _SPLINE_RANGE = (-80.0, 80.0)

    def log_density_log_abs(self, log_abs_x):
        """log h_1 at |t| = exp(u), robust over the whole real line in u."""
        u = np.atleast_1d(np.asarray(log_abs_x, dtype=float))
        log_z = 2.0 * u - LOG_TWO
        out = np.empty_like(u)
        # E1(z) = -gamma - log z + O(z): exact in double below z = e^-700
        tiny = log_z < -700.0
        # e^z E1(z) by its asymptotic series where e^z would overflow
        big = log_z > math.log(700.0)
        mid = ~(tiny | big)
        out[tiny] = np.log(-np.euler_gamma - log_z[tiny])
        out[mid] = _log_exp_e1(np.exp(log_z[mid]))
        if big.any():
            lz = log_z[big]
            out[big] = -lz + np.log(np.polyval(self._ASYMPTOTIC, np.exp(-lz)))
        out += self._LOG_NORM
        return out if np.ndim(log_abs_x) else float(out[0])

    def log_density_mixing(self, u):
        # lambda = e^u ~ C+(0, 1): 2 lambda / (pi (1 + lambda^2)) per unit u
        return math.log(2.0 / math.pi) + u - np.logaddexp(0.0, 2.0 * u)

    def sample(self, generator, size):
        lam = np.abs(generator.standard_cauchy(size))
        return lam * generator.standard_normal(size)

    # -- fast spline path ---------------------------------------------------

    @classmethod
    def _ensure_spline(cls):
        if cls._spline is None:
            lo, hi = cls._SPLINE_RANGE
            h = 0.005
            u = np.linspace(lo, hi, int((hi - lo) / h) + 1)
            # the closed form at the knots and at two more past each end
            y = cls().log_density_log_abs(
                np.r_[lo - 2.0 * h, lo - h, u, hi + h, hi + 2.0 * h])
            # each knot's slope by the five-point central difference
            s = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
            y = y[2:-2]
            dx = np.diff(u)
            slope = np.diff(y) / dx
            # the cubic Hermite interpolant of (y, s) on each interval
            t = (s[:-1] + s[1:] - 2.0 * slope) / dx
            c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))
            cls._spline = _UniformKnotSpline(u, c)
        return cls._spline

    def _engine_log_abs(self, log_abs_x):
        # the spline inside its range, the closed form outside, which
        # gives log 0 = -inf the pole's +inf
        spline = self._ensure_spline()
        u = np.atleast_1d(np.asarray(log_abs_x, dtype=float))
        lo, hi = self._SPLINE_RANGE
        inside = (u >= lo) & (u <= hi)
        if inside.all():
            out = spline(u)
        else:
            out = np.empty_like(u)
            out[inside] = spline(u[inside])
            out[~inside] = self.log_density_log_abs(u[~inside])
        return out if np.ndim(log_abs_x) else float(out[0])


class _UniformKnotSpline:
    """Piecewise cubic on equally spaced knots x, coefficients c as in
    scipy's PPoly (c[k, i] multiplies (u - x[i])^(3-k)), for u in
    [x[0], x[-1]].

    The interval comes from the knot spacing, ⌊(u - x[0]) / h⌋, clipped
    and then corrected by one comparison each way against the stored
    knots, so x[i] <= u < x[i+1] with the last interval closed, as PPoly
    finds it by search.  Both comparisons read the first estimate's knots
    (u < x[i] rules out u >= x[i+1]), each gathered once; x[i] is
    gathered again only when some u needs a correction.  The cubic is
    summed in PPoly's order, so values are bit-identical to PPoly's on
    the same x and c.
    """

    def __init__(self, x, c):
        self.x = x
        self._right = x[1:]
        # one array per power: a 1-D gather takes about half the time of
        # the same gather through c[k, i]
        self.c = tuple(c)
        self._inv_h = (len(x) - 1) / (x[-1] - x[0])

    def __call__(self, u):
        x, (c0, c1, c2, c3) = self.x, self.c
        last = len(x) - 2
        i = ((u - x[0]) * self._inv_h).astype(np.intp)
        # np.maximum and np.minimum, not np.clip: same values without
        # np.clip's Python-level argument handling on every call
        np.maximum(i, 0, out=i)
        np.minimum(i, last, out=i)
        xi = x[i]
        down = u < xi
        up = u >= self._right[i]
        if down.any() or up.any():
            i -= down
            i += up
            np.minimum(i, last, out=i)
            xi = x[i]
        s = u - xi
        ss = s * s
        return 0.0 + c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)


STUDENT3 = StudentTail(3.0)
CAUCHY = CauchyTail()
HORSESHOE = HorseshoeTail()
GAUSSIAN = GaussianTail()


def horseshoe_log_density(t, tau):
    """log h_tau(t) for the horseshoe with scale tau > 0.

    h_tau(t) = h_1(t / tau) / tau; each value satisfies the analytic
    sandwich strictly (see horseshoe_sandwich_bounds).
    """
    if not tau > 0:
        raise InvalidParameterError("tau must be > 0")
    return HORSESHOE.log_density(np.divide(t, tau)) - math.log(tau)


def horseshoe_sandwich_bounds(t, tau):
    """(lower, upper) analytic bounds on h_tau(t) for tau > 0."""
    if not tau > 0:
        raise InvalidParameterError("tau must be > 0")
    t = np.asarray(t, dtype=float)
    r = (tau / t) ** 2
    lower = _HS_K / tau * np.log1p(4.0 * r)
    upper = 2.0 * _HS_K / tau * np.log1p(2.0 * r)
    return lower, upper


# --------------------------------------------------------------------------
# Scaling rules
# --------------------------------------------------------------------------


class ScalingRule:
    """Deterministic decay sigma_k (or sigma_j for level rules).

    All rules expose exact log values; linear-domain values may underflow
    for extreme indices while the log stays exact.  log sigma = -inf, and
    only that, forces a coefficient to exactly 0.
    """

    level_indexed = False
    # True when the rule's parameters carry hyperpriors, which only the
    # Gibbs baseline fits
    hierarchical = False

    def log_scale(self, idx):
        raise NotImplementedError


def _check_single_index(k):
    k = np.asarray(k)
    if np.any(k < 1):
        raise InvalidParameterError("single-index rules require k >= 1")
    return k.astype(float)


@dataclass(frozen=True)
class OTScaling(ScalingRule):
    """sigma_k = exp(-(log k)^{1+nu})."""

    nu: float = 0.5

    def __post_init__(self):
        if not self.nu > 0:
            raise InvalidParameterError("nu must be > 0")

    def log_scale(self, k):
        return -np.log(_check_single_index(k)) ** (1.0 + self.nu)


@dataclass(frozen=True)
class HTScaling(ScalingRule):
    """sigma_k = k^{-1/2 - alpha}."""

    alpha: float

    def __post_init__(self):
        # alpha = inf would give sigma_1 = exp(-inf * 0) = NaN
        if not 0 < self.alpha < math.inf:
            raise InvalidParameterError("alpha must be finite and > 0")

    def log_scale(self, k):
        return -(0.5 + self.alpha) * np.log(_check_single_index(k))


@dataclass(frozen=True)
class ConstantTruncatedScaling(ScalingRule):
    """sigma_k = tau up to k_trunc, log sigma_k = -inf (the coefficient
    forced to 0) beyond."""

    tau: float
    k_trunc: int

    def __post_init__(self):
        if not self.tau > 0:
            raise InvalidParameterError("tau must be > 0")
        if not self.k_trunc >= 1:
            raise InvalidParameterError("k_trunc must be >= 1")

    def log_scale(self, k):
        k = _check_single_index(k)
        return np.where(k <= self.k_trunc, math.log(self.tau), -np.inf)


def _level_index(j):
    # sigma_{-1} and pseudo-levels share sigma_0 conventions
    return np.maximum(np.asarray(j, dtype=float), 0.0)


def hierarchical_log_scale(log_tau, alpha, j):
    """log sigma_j = log tau - j (1/2 + alpha) log 2 of the hierarchical
    Gaussian prior, with level -1 at the level-0 scale."""
    return log_tau - _level_index(j) * (0.5 + alpha) * LOG_TWO


@dataclass(frozen=True)
class WaveletOTScaling(ScalingRule):
    """sigma_j = 2^{-j^{1+nu}} shared across k within level j."""

    nu: float = 0.5
    level_indexed = True

    def __post_init__(self):
        if not self.nu > 0:
            raise InvalidParameterError("nu must be > 0")

    def log_scale(self, j):
        return -(_level_index(j) ** (1.0 + self.nu)) * LOG_TWO


@dataclass(frozen=True)
class GaussianHierarchicalScaling(ScalingRule):
    """sigma_j = tau * 2^{-j(1/2 + alpha)}; (tau, alpha) carry hyperpriors
    in the Gibbs baseline but the rule evaluates at fixed values."""

    tau: float = 1.0
    alpha: float = 1.0
    level_indexed = True
    hierarchical = True

    def __post_init__(self):
        if not (self.tau > 0 and 0 < self.alpha < math.inf):
            raise InvalidParameterError(
                "tau must be > 0 and alpha finite and > 0")

    def log_scale(self, j):
        return hierarchical_log_scale(math.log(self.tau), self.alpha, j)


# --------------------------------------------------------------------------
# Assembled prior
# --------------------------------------------------------------------------

def coordinate_index(count, level_indexed):
    """The index a scaling rule reads at each of `count` flat positions:
    k = 1..count, or the packed-wavelet level of each position."""
    if level_indexed:
        return wavelets.flat_levels(count)
    return np.arange(1, count + 1)


@dataclass(frozen=True)
class PriorSpec:
    tail: TailFamily
    scaling: ScalingRule
    _: KW_ONLY
    baseline: bool = False
    label: str = ""

    def __post_init__(self):
        if not (self.tail.is_heavy or self.baseline
                or self.scaling.hierarchical):
            raise InvalidParameterError(
                "light-tailed families are only admissible as flagged baselines"
            )

    def check_basis(self, basis):
        """ShapeError unless the scaling rule reads the index `basis`
        carries: a level on a wavelet basis, k = 1, 2, ... on any other."""
        if self.scaling.level_indexed != basis.double_indexed:
            raise ShapeError("single-index prior applied to wavelet data"
                             if basis.double_indexed else
                             "level-indexed prior applied to single-index data")

    def coordinate_scales(self, count):
        """(log sigma, active) at each of `count` flat coordinates; a
        coefficient is inactive, forced to 0, where log sigma = -inf."""
        log_s = self.scaling.log_scale(
            coordinate_index(count, self.scaling.level_indexed))
        return log_s, log_s > -np.inf


# A prior name reads <tail>-<scaling>; a scaling key ending in "-" reads a
# number from the rest, spelled only as its repr less a final .0 (ht-2)
_TAILS = {"gaussian": GaussianTail, "student3": lambda: StudentTail(3.0),
          "cauchy": CauchyTail, "horseshoe": HorseshoeTail}
_SCALINGS = {"ot": lambda: OTScaling(0.5),
             "wavelet-ot": lambda: WaveletOTScaling(0.5), "ht-": HTScaling}


def make_prior(name, n=None):
    """The PriorSpec a prior name describes, labelled with the name.

    truncated-hs (the horseshoe at tau = 1/n truncated at k = n, for a
    finite precision n > 0) and gaussian-hierarchical are aliases; of the
    <tail>-<scaling> names, a Gaussian tail's is a baseline comparator.
    """
    if name == "truncated-hs":
        if n is None or not 0 < n < math.inf:
            raise InvalidParameterError(
                f"truncated-hs needs a finite precision n > 0, not {n!r}")
        return PriorSpec(HorseshoeTail(), ConstantTruncatedScaling(
            1.0 / n, max(1, int(round(n)))), label=name)
    if name == "gaussian-hierarchical":
        return PriorSpec(GaussianTail(), GaussianHierarchicalScaling(1.0, 1.0),
                         label=name)
    tail_key, _, scaling = name.partition("-")
    if tail_key not in _TAILS:
        raise InvalidParameterError(f"prior {name!r}: unknown tail "
                                    f"{tail_key!r}, not one of {list(_TAILS)}")
    key = scaling if scaling in _SCALINGS else scaling[:scaling.find("-") + 1]
    if key not in _SCALINGS:
        raise InvalidParameterError(f"prior {name!r}: unknown scaling "
                                    f"{scaling!r}, not one of {list(_SCALINGS)}")
    args, text = (), scaling.removeprefix(key)
    if key.endswith("-"):
        try:
            args = (float(text),)
        except ValueError:
            pass
        if not args or repr(args[0]).removesuffix(".0") != text:
            raise InvalidParameterError(f"prior {name!r}: alpha {text!r} is "
                                        "not a number spelled as its repr, "
                                        "less a final .0")
    tail = _TAILS[tail_key]()
    return PriorSpec(tail, _SCALINGS[key](*args), baseline=not tail.is_heavy,
                     label=name)


def sample_prior(spec, count, seed):
    """Independent coefficient draws f_k = sigma_k zeta_k at `count` flat
    coordinates, with the scales of `spec.coordinate_scales` (the packed
    wavelet layout's levels for a level-indexed rule)."""
    if require_integer("count", count) < 1:
        raise InvalidParameterError("count must be >= 1")
    log_s, active = spec.coordinate_scales(count)
    zeta = np.empty(count)
    for pos in range(count):
        gen = rng.coord_generator(seed, rng.STREAM_PRIOR, pos)
        zeta[pos] = spec.tail.sample(gen, 1)[0]
    return np.where(active, np.exp(log_s) * zeta, 0.0)
