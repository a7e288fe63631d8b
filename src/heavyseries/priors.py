"""Tail families, scaling rules, assembled series priors and their named
presets.

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
overflow.  Every value can be cross-checked against the analytic sandwich

  K/tau * log(1 + 4 tau^2/t^2) <= h_tau(t) <= 2K/tau * log(1 + 2 tau^2/t^2),

with K = (2 pi)^{-3/2}.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special
from scipy.interpolate import CubicSpline

from . import rng, wavelets
from .errors import InvalidParameterError

LOG_TWO = math.log(2.0)
_HS_K = (2.0 * math.pi) ** -1.5  # sandwich constant


# --------------------------------------------------------------------------
# Tail families
# --------------------------------------------------------------------------


class TailFamily:
    """Base class; subclasses provide log_density, log_density_log_abs,
    tail_mass and sampling."""

    name = "abstract"
    is_heavy = False
    # (E) envelope constants (c1, kappa) and (T) constant c2, with margin;
    # None when the family certifies no heavy-tail bound.
    envelope = None
    tail_bound_c2 = None

    def log_density(self, x):
        raise NotImplementedError

    def tail_mass(self, x):
        raise NotImplementedError

    def sample(self, generator, size):
        raise NotImplementedError

    def log_density_log_abs(self, log_abs_x):
        """log h at |x| = exp(log_abs_x), exact for any real log_abs_x,
        where |x| itself may overflow or underflow the double range."""
        raise NotImplementedError

    def log_density_scaled(self, theta, log_scale):
        """log h(theta / sigma), safely for any magnitude ratio; sigma =
        exp(log_scale) is one scale or one per element of theta.

        The posterior engine's one entry point (quadrature and
        Metropolis).  Exact zeros take log h(0) from
        log_density_log_abs(-inf): +inf at the horseshoe's integrable
        pole, which quadrature nodes avoid.
        """
        ax = np.abs(theta)
        zero = ax == 0.0
        if not zero.any():
            return self._engine_log_abs(np.log(ax) - log_scale)
        out = np.empty(ax.shape)
        out[zero] = self.log_density_log_abs(-np.inf)
        rest = ~zero
        if rest.any():
            if np.ndim(log_scale):
                log_scale = log_scale[rest]
            out[rest] = self._engine_log_abs(np.log(ax[rest]) - log_scale)
        return out

    def _engine_log_abs(self, log_abs_x):
        # what log_density_scaled evaluates at nonzero theta; a tail may
        # put a faster approximation of log_density_log_abs here
        return self.log_density_log_abs(log_abs_x)

    def __repr__(self):
        return f"<tail {self.name}>"


class StudentTail(TailFamily):
    """Student t with df >= 1 degrees of freedom (df = 1 is Cauchy)."""

    is_heavy = True

    def __init__(self, df=3.0):
        if df < 1:
            raise InvalidParameterError("Student tails need df >= 1")
        self.df = float(df)
        self.name = f"student-{df:g}"
        self._log_norm = (
            special.gammaln((self.df + 1) / 2.0)
            - special.gammaln(self.df / 2.0)
            - 0.5 * math.log(self.df * math.pi)
        )
        self.envelope = (self.df + 2.0 + abs(self._log_norm), 0.0)
        # x * sf(x) peaks at moderate x and decays for df > 1; for df = 1
        # it increases to 1/pi, so that case carries a 10% margin.
        self.tail_bound_c2 = 1.1 / math.pi if self.df == 1.0 else 0.5

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return self._log_norm - 0.5 * (self.df + 1) * np.log1p(x * x / self.df)

    def log_density_log_abs(self, log_abs_x):
        u = np.asarray(log_abs_x, dtype=float)
        # past |x| = e^150, log1p(x^2/df) is log(x^2/df) to double
        # precision, and further out x * x overflows
        big = u > 150.0
        if not big.any():
            return self.log_density(np.exp(u))
        out = np.empty_like(u)
        out[big] = self._log_norm - (self.df + 1) * (
            u[big] - 0.5 * math.log(self.df))
        out[~big] = self.log_density(np.exp(u[~big]))
        return out

    def tail_mass(self, x):
        x = np.asarray(x, dtype=float)
        if self.df == 1.0:
            return np.arctan2(1.0, x) / math.pi
        return special.stdtr(self.df, -x)

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

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x - 0.5 * math.log(2 * math.pi)

    def log_density_log_abs(self, log_abs_x):
        u = np.asarray(log_abs_x, dtype=float)
        expo = np.where(u < 154.0, 2.0 * u, 308.0 * math.log(10.0))
        return -0.5 * np.exp(expo) - 0.5 * math.log(2 * math.pi)

    def tail_mass(self, x):
        return special.ndtr(-np.asarray(x, dtype=float))

    def sample(self, generator, size):
        return generator.standard_normal(size)


class HorseshoeTail(TailFamily):
    """Unit-scale horseshoe: normal scale mixture over a half-Cauchy.

    The density has the closed form h(t) = (2 pi^3)^{-1/2} e^z E1(z),
    z = t^2/2, with a logarithmic pole at 0 (h(t) ~ (2 pi^3)^{-1/2}
    (-2 log t + log 2 - gamma)) and Cauchy-like tails (h(t) ~ 4K/t^2).
    `log_density_log_abs` evaluates it to about 1e-13 absolute in log h.
    The posterior engine (`log_density_scaled`) uses a cached cubic
    spline over log|t| on [-80, 80] instead, built lazily from the closed
    form at knots 0.005 apart; it reproduces the closed form at its knots
    and is within 1e-12 of it between them.  scipy's CubicSpline computes
    its coefficients once; each evaluation finds its interval by direct
    indexing of the uniform knots, bit-identical to scipy's search.
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

    def log_density(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x == 0):
            raise InvalidParameterError("horseshoe density has a pole at 0")
        return self.log_density_log_abs(np.log(np.abs(x)))

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
        z = np.exp(log_z[mid])
        out[mid] = z + np.log(special.exp1(z))
        lz = log_z[big]
        out[big] = -lz + np.log(np.polyval(self._ASYMPTOTIC, np.exp(-lz)))
        out += self._LOG_NORM
        return out if np.ndim(log_abs_x) else float(out[0])

    @staticmethod
    def _quad_nodes(lo, hi, panel_width=1.0, order=16):
        gl_x, gl_w = np.polynomial.legendre.leggauss(order)
        n_panels = max(4, int(np.ceil((hi - lo) / panel_width)))
        edges = np.linspace(lo, hi, n_panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
        weights = (half[:, None] * gl_w[None, :]).ravel()
        return nodes, weights

    def tail_mass(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        ax = np.atleast_1d(np.abs(x)).astype(float)
        out = np.empty_like(ax)
        pos = ax > 0
        out[~pos] = 0.5
        if np.any(pos):
            lx = np.log(ax[pos])
            lo = min(lx.min(), 0.0) - 45.0
            hi = max(lx.max(), 0.0) + 45.0
            w, wt = self._quad_nodes(lo, hi)
            # half-Cauchy weight keeps its Jacobian: e^w / (1 + e^{2w})
            log_mix = w - np.where(
                w > 0, 2 * w + np.log1p(np.exp(-2 * w)), np.log1p(np.exp(2 * w))
            )
            # one-sided survival P(T > x | lambda) = Phi(-x/lambda)
            z = ax[pos][:, None] * np.exp(-w[None, :])
            log_surv = special.log_ndtr(-z)
            logf = math.log(2.0 / math.pi) + log_mix[None, :] + log_surv
            out[pos] = np.exp(special.logsumexp(logf, b=wt[None, :], axis=1))
        return float(out[0]) if scalar else out

    def sample(self, generator, size):
        lam = np.abs(generator.standard_cauchy(size))
        return lam * generator.standard_normal(size)

    # -- fast spline path ---------------------------------------------------

    @classmethod
    def _ensure_spline(cls):
        if cls._spline is None:
            lo, hi = cls._SPLINE_RANGE
            u = np.linspace(lo, hi, int((hi - lo) / 0.005) + 1)
            cubic = CubicSpline(u, cls().log_density_log_abs(u))
            cls._spline = _UniformKnotSpline(cubic.x, cubic.c)
        return cls._spline

    def _engine_log_abs(self, log_abs_x):
        # the spline inside its range, the closed form outside
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
    finds it by search.  The cubic is summed in PPoly's order, so values
    are bit-identical to PPoly's on the same x and c.
    """

    def __init__(self, x, c):
        self.x = x
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
        i -= u < x[i]
        i += u >= x[i + 1]
        np.minimum(i, last, out=i)
        s = u - x[i]
        ss = s * s
        return 0.0 + c3[i] + c2[i] * s + c1[i] * ss + c0[i] * (ss * s)


STUDENT3 = StudentTail(3.0)
CAUCHY = CauchyTail()
HORSESHOE = HorseshoeTail()
GAUSSIAN = GaussianTail()

_FAMILIES = {
    "student": StudentTail,
    "cauchy": CauchyTail,
    "horseshoe": HorseshoeTail,
    "gaussian": GaussianTail,
}


def horseshoe_log_density(t, tau):
    """log h_tau(t) for the horseshoe with scale tau > 0.

    h_tau(t) = h_1(t / tau) / tau; each value satisfies the analytic
    sandwich strictly (see horseshoe_sandwich_bounds).
    """
    if tau <= 0:
        raise InvalidParameterError("tau must be > 0")
    t = np.asarray(t, dtype=float)
    if np.any(t == 0):
        raise InvalidParameterError("horseshoe density has a pole at t = 0")
    return HORSESHOE.log_density(t / tau) - math.log(tau)


def horseshoe_sandwich_bounds(t, tau):
    """(lower, upper) analytic bounds on h_tau(t)."""
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
    for extreme indices while the log stays exact.
    """

    level_indexed = False
    kind = "abstract"

    def log_scale(self, idx):
        raise NotImplementedError

    def active(self, idx):
        """False where the rule forces the coefficient to exactly 0."""
        return np.ones(np.shape(idx), dtype=bool) if np.ndim(idx) else True

    def config(self):
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
    kind = "ot"

    def __post_init__(self):
        if self.nu <= 0:
            raise InvalidParameterError("nu must be > 0")

    def log_scale(self, k):
        return -np.log(_check_single_index(k)) ** (1.0 + self.nu)

    def config(self):
        return {"scaling": "ot", "nu": self.nu}


@dataclass(frozen=True)
class HTScaling(ScalingRule):
    """sigma_k = k^{-1/2 - alpha}."""

    alpha: float
    kind = "ht"

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidParameterError("alpha must be > 0")

    def log_scale(self, k):
        return -(0.5 + self.alpha) * np.log(_check_single_index(k))

    def config(self):
        return {"scaling": "ht", "alpha": self.alpha}


@dataclass(frozen=True)
class ConstantTruncatedScaling(ScalingRule):
    """sigma_k = tau up to k_trunc, coefficient forced to 0 beyond."""

    tau: float
    k_trunc: int
    kind = "constant-truncated"

    def __post_init__(self):
        if self.tau <= 0:
            raise InvalidParameterError("tau must be > 0")
        if self.k_trunc < 1:
            raise InvalidParameterError("k_trunc must be >= 1")

    def log_scale(self, k):
        k = _check_single_index(k)
        return np.where(k <= self.k_trunc, math.log(self.tau), -np.inf)

    def active(self, k):
        return np.asarray(k) <= self.k_trunc

    def config(self):
        return {"scaling": "constant-truncated", "tau": self.tau,
                "truncation": self.k_trunc}


def _level_index(j):
    # sigma_{-1} and pseudo-levels share sigma_0 conventions
    return np.maximum(np.asarray(j, dtype=float), 0.0)


@dataclass(frozen=True)
class WaveletOTScaling(ScalingRule):
    """sigma_j = 2^{-j^{1+nu}} shared across k within level j."""

    nu: float = 0.5
    level_indexed = True
    kind = "wavelet-ot"

    def __post_init__(self):
        if self.nu <= 0:
            raise InvalidParameterError("nu must be > 0")

    def log_scale(self, j):
        return -(_level_index(j) ** (1.0 + self.nu)) * LOG_TWO

    def config(self):
        return {"scaling": "wavelet-ot", "nu": self.nu}


@dataclass(frozen=True)
class GaussianHierarchicalScaling(ScalingRule):
    """sigma_j = tau * 2^{-j(1/2 + alpha)}; (tau, alpha) carry hyperpriors
    in the Gibbs baseline but the rule evaluates at fixed values."""

    tau: float = 1.0
    alpha: float = 1.0
    level_indexed = True
    kind = "gaussian-hierarchical"

    def __post_init__(self):
        if self.tau <= 0 or self.alpha <= 0:
            raise InvalidParameterError("tau and alpha must be > 0")

    def log_scale(self, j):
        return math.log(self.tau) - _level_index(j) * (0.5 + self.alpha) * LOG_TWO

    def config(self):
        return {"scaling": "gaussian-hierarchical", "tau": self.tau,
                "alpha": self.alpha}


# --------------------------------------------------------------------------
# Assembled prior
# --------------------------------------------------------------------------

SINGLE = "single"
DOUBLE = "double"


@dataclass(frozen=True)
class PriorSpec:
    tail: TailFamily
    scaling: ScalingRule
    index_mode: str = SINGLE
    baseline: bool = False
    label: str = field(default="")

    def __post_init__(self):
        if self.index_mode not in (SINGLE, DOUBLE):
            raise InvalidParameterError("index_mode must be single or double")
        if self.scaling.level_indexed != (self.index_mode == DOUBLE):
            raise InvalidParameterError(
                "level-indexed scalings require double index mode and vice versa"
            )
        if not self.tail.is_heavy and not (
            self.baseline
            or isinstance(self.scaling, GaussianHierarchicalScaling)
        ):
            raise InvalidParameterError(
                "light-tailed families are only admissible as flagged baselines"
            )
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.tail.name}-{self.scaling.kind}"
            )

    def config(self):
        cfg = {"tail": self.tail.name, "index_mode": self.index_mode}
        if isinstance(self.tail, StudentTail) and self.tail.df != 1.0:
            cfg["df"] = self.tail.df
        cfg.update(self.scaling.config())
        if self.baseline:
            cfg["baseline"] = True
        return cfg


def prior_from_config(cfg):
    """Inverse of PriorSpec.config()."""
    tail_name = cfg["tail"].partition("-")[0]
    if tail_name not in _FAMILIES:
        raise InvalidParameterError(f"unknown tail {cfg['tail']!r}")
    if tail_name == "student":
        tail = StudentTail(float(cfg.get("df", 3)))
    else:
        tail = _FAMILIES[tail_name]()
    kind = cfg["scaling"]
    if kind == "ot":
        scaling = OTScaling(float(cfg.get("nu", 0.5)))
    elif kind == "ht":
        scaling = HTScaling(float(cfg["alpha"]))
    elif kind == "constant-truncated":
        scaling = ConstantTruncatedScaling(
            float(cfg["tau"]), int(cfg["truncation"])
        )
    elif kind == "wavelet-ot":
        scaling = WaveletOTScaling(float(cfg.get("nu", 0.5)))
    elif kind == "gaussian-hierarchical":
        scaling = GaussianHierarchicalScaling(
            float(cfg.get("tau", 1.0)), float(cfg.get("alpha", 1.0))
        )
    else:
        raise InvalidParameterError(f"unknown scaling {kind!r}")
    index_mode = cfg.get("index_mode", SINGLE)
    return PriorSpec(tail, scaling, index_mode, baseline=bool(cfg.get("baseline")))


_STUDENT3 = {"tail": "student-3", "df": 3.0}
_PRESETS = {
    "student3-ot": {**_STUDENT3, "scaling": "ot", "nu": 0.5},
    "cauchy-ot": {"tail": "cauchy", "scaling": "ot", "nu": 0.5},
    "horseshoe-ot": {"tail": "horseshoe", "scaling": "ot", "nu": 0.5},
    "cauchy-wavelet-ot": {"tail": "cauchy", "index_mode": DOUBLE,
                          "scaling": "wavelet-ot", "nu": 0.5},
    "gaussian-hierarchical": {"tail": "gaussian", "index_mode": DOUBLE,
                              "scaling": "gaussian-hierarchical",
                              "tau": 1.0, "alpha": 1.0},
}


def make_prior(name, n=None):
    """The PriorSpec of a named preset, labelled with the preset's name.

    Each preset is a prior_from_config config.  truncated-hs (the
    horseshoe at tau = 1/n, truncated at k = n) needs the noise precision
    n; student3-ht-<alpha> takes alpha from its name.
    """
    if name in _PRESETS:
        cfg = _PRESETS[name]
    elif name == "truncated-hs":
        if n is None:
            raise InvalidParameterError("truncated-hs needs the precision n")
        cfg = {"tail": "horseshoe", "scaling": "constant-truncated",
               "tau": 1.0 / n, "truncation": max(1, int(round(n)))}
    elif name.startswith("student3-ht-"):
        cfg = {**_STUDENT3, "scaling": "ht",
               "alpha": float(name.rsplit("-", 1)[1])}
    else:
        raise InvalidParameterError(f"unknown prior preset {name!r}")
    return replace(prior_from_config(cfg), label=name)


def sample_prior(spec, count, seed):
    """Independent coefficient draws f_k = sigma_k zeta_k, k = 1..count.

    Double-indexed specs interpret positions through the packed wavelet
    layout and use the level scale at each coordinate.
    """
    if count < 1:
        raise InvalidParameterError("count must be >= 1")
    if spec.index_mode == SINGLE:
        idx = np.arange(1, count + 1)
        log_s = spec.scaling.log_scale(idx)
        active = spec.scaling.active(idx)
    else:
        log_s = spec.scaling.log_scale(wavelets.flat_levels(count))
        active = np.ones(count, dtype=bool)
    zeta = np.empty(count)
    for pos in range(count):
        gen = rng.coord_generator(seed, rng.STREAM_PRIOR, pos)
        zeta[pos] = spec.tail.sample(gen, 1)[0]
    out = np.where(active, np.exp(log_s) * zeta, 0.0)
    return out
