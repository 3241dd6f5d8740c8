"""Seeded power simulation for the component tests.

Samples are drawn from an alternative distribution, binned by the null
distribution's quantiles so that the null induces exactly the requested
multinomial vector, and each replication's counts are decomposed into
the component statistics.  Rejection rates over many replications
estimate the power of the overall chi-square test and of every
component individually.

Reproducibility contract: every replication draws from its own
counter-based stream keyed by (master seed, replication index), and the
per-statistic rejection counts are reduced by integer summation, so
results are bit-identical regardless of how replications are chunked
across threads.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chisq import (Eigenbasis, ProbabilityVector, canonical_signed_square_8,
                    eigenbasis_from_latin_hadamard)
from .coloring import SignedLatinSquare
from .errors import ValidationError

__all__ = [
    "DistributionSpec", "BinningScheme", "PowerSimConfig", "PowerSimResult",
    "normal_quantile", "chi_square_critical", "normal_critical",
    "bin_edges", "matched_normal_null", "preset_probability",
    "simulate_power", "PRESET_WEIGHTS",
]

PRESET_WEIGHTS = {
    "a": (1, 1, 1, 1, 1, 1, 1, 1),
    "b": (1, 2, 3, 4, 4, 3, 2, 1),
    "c": (1, 2, 3, 4, 1, 2, 3, 4),
}

# 6-digit critical values at alpha = 0.05 (two-sided normal, upper chi-square).
NORMAL_CRITICAL_975 = 1.95996
CHI_SQUARE_CRITICAL_95 = {1: 3.84146, 3: 7.81473, 7: 14.0671, 15: 24.9958}


def preset_probability(name: str) -> ProbabilityVector:
    """The three standard 8-cell probability vectors, by letter."""
    try:
        weights = PRESET_WEIGHTS[name]
    except KeyError:
        raise ValidationError(f"unknown preset {name!r}; choose from a, b, c") from None
    return ProbabilityVector.proportional_to(weights)


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution: normal(mu, sigma), t(nu), cauchy, or
    gamma(shape, scale)."""

    family: str
    params: tuple[float, ...] = ()

    _ARITY = {"normal": 2, "t": 1, "cauchy": 0, "gamma": 2}

    def __post_init__(self):
        family = self.family
        if family not in self._ARITY:
            raise ValidationError(f"unknown distribution family {family!r}")
        params = tuple(float(v) for v in self.params)
        if len(params) != self._ARITY[family]:
            raise ValidationError(
                f"{family} takes {self._ARITY[family]} parameter(s), got {len(params)}")
        if not all(math.isfinite(v) for v in params):
            raise ValidationError(f"{family} parameters must be finite")
        if family == "normal" and params[1] <= 0:
            raise ValidationError("normal scale must be positive")
        if family == "t" and params[0] < 1:
            raise ValidationError("t degrees of freedom must be >= 1")
        if family == "gamma" and (params[0] <= 0 or params[1] <= 0):
            raise ValidationError("gamma shape and scale must be positive")
        object.__setattr__(self, "params", params)

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse 'normal:0,1.3', 't:2', 'gamma:5,0.2' or 'cauchy'."""
        name, _, rest = text.partition(":")
        name = name.strip().lower()
        try:
            params = tuple(float(tok) for tok in rest.split(",")) if rest else ()
        except ValueError:
            raise ValidationError(f"malformed distribution spec {text!r}") from None
        return cls(name, params)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw from the distribution using the given stream."""
        if self.family == "normal":
            mu, sd = self.params
            return rng.normal(mu, sd, size)
        if self.family == "t":
            return rng.standard_t(self.params[0], size)
        if self.family == "cauchy":
            return rng.standard_t(1.0, size)
        shape, scale = self.params
        return rng.gamma(shape, scale, size)

    def quantile(self, q: float) -> float:
        """Inverse CDF at q in (0, 1)."""
        if not 0.0 < q < 1.0:
            raise ValidationError("quantile argument must be strictly inside (0, 1)")
        if self.family == "normal":
            mu, sd = self.params
            return mu + sd * normal_quantile(q)
        if self.family == "cauchy":
            return math.tan(math.pi * (q - 0.5))
        from scipy import stats
        if self.family == "t":
            return float(stats.t.ppf(q, self.params[0]))
        shape, scale = self.params
        return float(stats.gamma.ppf(q, shape, scale=scale))

    def __str__(self) -> str:
        if not self.params:
            return self.family
        return f"{self.family}:" + ",".join(repr(v) for v in self.params)


# Rational minimax approximation to the standard normal quantile
# (Wichura's PPND16 scheme; absolute error well below 1e-9).
_PPND_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
           1.9715909503065514427e3, 1.3731693765509461125e4,
           4.5921953931549871457e4, 6.7265770927008700853e4,
           3.3430575583588128105e4, 2.5090809287301226727e3)
_PPND_B = (4.2313330701600911252e1, 6.8718700749205790830e2,
           5.3941960214247511077e3, 2.1213794301586595867e4,
           3.9307895800092710610e4, 2.8729085735721942674e4,
           5.2264952788528545610e3)
_PPND_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
           5.76949722146069140550e0, 3.64784832476320460504e0,
           1.27045825245236838258e0, 2.41780725177450611770e-1,
           2.27238449892691845833e-2, 7.74545014278341407640e-4)
_PPND_D = (2.05319162663775882187e0, 1.67638483018380384940e0,
           6.89767334985100004550e-1, 1.48103976427480074590e-1,
           1.51986665636164571966e-2, 5.47593808499534494600e-4,
           1.05075007164441684324e-9)
_PPND_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
           1.78482653991729133580e0, 2.96560571828504891230e-1,
           2.65321895265761230930e-2, 1.24266094738807843860e-3,
           2.71155556874348757815e-5, 2.01033439929228813265e-7)
_PPND_F = (5.99832206555887937690e-1, 1.36929880922735805310e-1,
           1.48753612908506148525e-2, 7.86869131145613259100e-4,
           1.84631831751005468180e-5, 1.42151175831644588870e-7,
           2.04426310338993978564e-15)


def _rational(r: float, num: tuple, den: tuple) -> float:
    p = num[-1]
    for coeff in reversed(num[:-1]):
        p = p * r + coeff
    q = den[-1]
    for coeff in reversed(den[:-1]):
        q = q * r + coeff
    q = q * r + 1.0
    return p / q


def normal_quantile(q: float) -> float:
    """Standard normal inverse CDF, accurate to well below 1e-9."""
    if not 0.0 < q < 1.0:
        raise ValidationError("quantile argument must be strictly inside (0, 1)")
    u = q - 0.5
    if abs(u) <= 0.425:
        r = 0.180625 - u * u
        return u * _rational(r, _PPND_A, _PPND_B)
    r = q if u < 0 else 1.0 - q
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        value = _rational(r - 1.6, _PPND_C, _PPND_D)
    else:
        value = _rational(r - 5.0, _PPND_E, _PPND_F)
    return -value if u < 0 else value


def normal_critical(alpha: float) -> float:
    """Two-sided standard normal critical value at level alpha."""
    if alpha == 0.05:
        return NORMAL_CRITICAL_975
    return normal_quantile(1.0 - alpha / 2.0)


def chi_square_critical(df: int, alpha: float) -> float:
    """Upper chi-square critical value; embedded constants at alpha 0.05."""
    if alpha == 0.05 and df in CHI_SQUARE_CRITICAL_95:
        return CHI_SQUARE_CRITICAL_95[df]
    from scipy import stats
    return float(stats.chi2.ppf(1.0 - alpha, df))


@dataclass(frozen=True, eq=False)
class BinningScheme:
    """Cell edges chosen so the null distribution induces exactly p."""

    edges: np.ndarray
    p: ProbabilityVector

    @property
    def k(self) -> int:
        return self.p.k

    def bin_counts(self, sample: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.edges, sample, side="right")
        return np.bincount(idx, minlength=self.k)


def bin_edges(null: DistributionSpec, p: ProbabilityVector) -> BinningScheme:
    """Quantile edges of the null at the cumulative cell probabilities."""
    cumulative = np.cumsum(p.p)[:-1]
    if (cumulative >= 1.0).any():
        raise ValidationError("cumulative probability reaches 1 before the last cell")
    edges = np.array([null.quantile(c) for c in cumulative])
    if not (np.diff(edges) > 0).all():
        raise ValidationError("null quantiles did not produce increasing edges")
    edges.setflags(write=False)
    return BinningScheme(edges=edges, p=p)


def matched_normal_null(g: DistributionSpec) -> DistributionSpec:
    """Normal distribution with the same mean and standard deviation as
    the given gamma distribution."""
    if g.family != "gamma":
        raise ValidationError("matched normal null is defined for gamma alternatives")
    shape, scale = g.params
    return DistributionSpec("normal", (shape * scale, math.sqrt(shape) * scale))


@dataclass(frozen=True, eq=False)
class PowerSimConfig:
    """Everything a power run needs; results are a pure function of this."""

    null: DistributionSpec
    alternative: DistributionSpec
    p: ProbabilityVector
    n: int = 200
    reps: int = 10000
    alpha: float = 0.05
    master_seed: int = 0
    matrix: object = None  # SignedLatinSquare, Eigenbasis, or None for the default

    def __post_init__(self):
        if self.reps < 1:
            raise ValidationError("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be strictly between 0 and 1")
        if self.n < 1:
            raise ValidationError("sample size must be positive")

    def resolve_basis(self) -> Eigenbasis:
        source = self.matrix
        if source is None:
            source = canonical_signed_square_8()
        if isinstance(source, SignedLatinSquare):
            return eigenbasis_from_latin_hadamard(source, self.p)
        if isinstance(source, Eigenbasis):
            if source.k != self.p.k or np.abs(source.p.p - self.p.p).max() > 1e-12:
                raise ValidationError("eigenbasis does not match the cell probabilities")
            return source
        raise ValidationError(f"unsupported matrix source {type(source).__name__}")


@dataclass(frozen=True, eq=False)
class PowerSimResult:
    """Rejection rates with Monte Carlo standard errors."""

    statistics: tuple[str, ...]
    rates: np.ndarray
    standard_errors: np.ndarray
    reps: int
    config: PowerSimConfig = field(repr=False)

    def as_dict(self) -> dict:
        return {name: float(rate)
                for name, rate in zip(self.statistics, self.rates)}

    def rows(self):
        """(statistic, rate, standard error) triples, X2 first."""
        return [(name, float(rate), float(se)) for name, rate, se
                in zip(self.statistics, self.rates, self.standard_errors)]


def _replication_stream(master_seed: int, rep: int) -> np.random.Generator:
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_block(cfg: PowerSimConfig, scheme: BinningScheme,
               vectors: np.ndarray, sqrt_expected: np.ndarray,
               expected: np.ndarray, chi_crit: float, z_crit: float,
               rep_range: range) -> np.ndarray:
    k = scheme.k
    rejections = np.zeros(k, dtype=np.int64)  # slot 0: X2, slots 1..k-1: T_2..T_k
    for rep in rep_range:
        rng = _replication_stream(cfg.master_seed, rep)
        sample = cfg.alternative.sample(rng, cfg.n)
        counts = scheme.bin_counts(sample)
        y = (counts - expected) / sqrt_expected
        x2 = float(y @ y)
        components = vectors.T @ y
        if x2 > chi_crit:
            rejections[0] += 1
        rejections[1:] += np.abs(components) > z_crit
    return rejections


def simulate_power(cfg: PowerSimConfig, threads: int | None = None) -> PowerSimResult:
    """Estimate rejection rates for X^2 and every component statistic.

    The overall statistic is compared against the upper chi-square
    critical value with k-1 degrees of freedom; each signed component
    against the two-sided normal critical value.  Replications are
    independent and may be chunked across threads without changing the
    result.
    """
    basis = cfg.resolve_basis()
    scheme = bin_edges(cfg.null, cfg.p)
    k = cfg.p.k
    expected = cfg.n * cfg.p.p
    sqrt_expected = np.sqrt(expected)
    vectors = basis.component_vectors()
    chi_crit = chi_square_critical(k - 1, cfg.alpha)
    z_crit = normal_critical(cfg.alpha)

    if threads is None or threads < 1:
        threads = 1
    block = math.ceil(cfg.reps / threads)
    ranges = [range(start, min(start + block, cfg.reps))
              for start in range(0, cfg.reps, block)]
    if len(ranges) == 1:
        totals = _run_block(cfg, scheme, vectors, sqrt_expected, expected,
                            chi_crit, z_crit, ranges[0])
    else:
        # The chunking follows the requested thread count, so the result
        # cannot depend on the pool size, which never exceeds the CPUs.
        workers = min(len(ranges), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                lambda r: _run_block(cfg, scheme, vectors, sqrt_expected,
                                     expected, chi_crit, z_crit, r), ranges)
            totals = sum(parts)

    rates = totals / cfg.reps
    ses = np.sqrt(rates * (1.0 - rates) / cfg.reps)
    names = ("X2",) + tuple(f"T{l}" for l in range(2, k + 1))
    return PowerSimResult(statistics=names, rates=rates, standard_errors=ses,
                          reps=cfg.reps, config=cfg)
