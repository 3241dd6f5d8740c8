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
results are bit-identical regardless of how replications are split
across worker processes.

Replications run in blocks of at most ``BLOCK_DRAWS`` draws.  A worker
resets one Philox to each replication's key, draws the samples into the
rows of a block, then bins and projects the whole block at once.  With
more than one worker, the calling process runs the first range of
replications itself and forks one child per other range; each child
sends back only its rejection counts through a pipe.
"""

from __future__ import annotations

import math
import numbers
import os
import statistics
import threading
from dataclasses import dataclass, field

import numpy as np

from .chisq import _OVERFLOW_MESSAGE, Eigenbasis, ProbabilityVector, _pearson_components
from .errors import InternalConsistencyError, ValidationError
from .latin import _integer

__all__ = [
    "DistributionSpec", "BinningScheme", "PowerSimConfig", "PowerSimResult",
    "chi_square_critical", "normal_critical", "bin_edges", "matched_normal_null",
    "preset_probability", "simulate_power",
]

PRESET_WEIGHTS = {
    "a": (1, 1, 1, 1, 1, 1, 1, 1),
    "b": (1, 2, 3, 4, 4, 3, 2, 1),
    "c": (1, 2, 3, 4, 1, 2, 3, 4),
}

# 6-digit critical values at alpha = 0.05 (two-sided normal, upper chi-square).
NORMAL_CRITICAL_975 = 1.95996
CHI_SQUARE_CRITICAL_95 = {1: 3.84146, 3: 7.81473, 7: 14.0671, 15: 24.9958}

# Draws held at once by one worker: a block of 2**21 doubles (16 MiB),
# whatever the replication count.  A sample may not exceed one block.
BLOCK_DRAWS = 1 << 21
MAX_REPS = 10 ** 7


def preset_probability(name: str) -> ProbabilityVector:
    """The three standard 8-cell probability vectors, by letter."""
    if not isinstance(name, str) or name not in PRESET_WEIGHTS:
        raise ValidationError(f"unknown preset {name!r}; choose from {', '.join(PRESET_WEIGHTS)}")
    return ProbabilityVector.proportional_to(PRESET_WEIGHTS[name])


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
        try:
            params = tuple(float(v) for v in self.params)
        except (TypeError, ValueError):  # not a sequence, or entries that are not numbers
            raise ValidationError(f"{family} parameters must be numbers") from None
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
        return cls(name, tuple(rest.split(",")) if rest else ())

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
        if not (isinstance(q, numbers.Real) and 0.0 < q < 1.0):
            raise ValidationError("quantile argument must be strictly inside (0, 1)")
        if self.family == "normal":
            mu, sd = self.params
            return mu + sd * statistics.NormalDist().inv_cdf(q)
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


def _level(alpha: float, tails: int) -> float:
    """q = 1 - alpha / tails, once alpha is a real number in (0, 1) and q
    has not rounded to 1 (infinite critical value)."""
    if not (isinstance(alpha, numbers.Real) and 0.0 < alpha < 1.0 and 1.0 - alpha / tails < 1.0):
        raise ValidationError(f"alpha must be in (0, 1), with finite critical values: {alpha!r}")
    return 1.0 - alpha / tails


def normal_critical(alpha: float) -> float:
    """Two-sided standard normal critical value at level alpha."""
    q = _level(alpha, 2)
    return NORMAL_CRITICAL_975 if alpha == 0.05 else statistics.NormalDist().inv_cdf(q)


def chi_square_critical(df: int, alpha: float) -> float:
    """Upper chi-square critical value; embedded constants at alpha 0.05."""
    q = _level(alpha, 1)
    df = _integer(df, "degrees of freedom", 1)
    if alpha == 0.05 and df in CHI_SQUARE_CRITICAL_95:
        return CHI_SQUARE_CRITICAL_95[df]
    from scipy import stats
    return float(stats.chi2.ppf(q, df))


@dataclass(frozen=True, eq=False)
class BinningScheme:
    """Cell edges chosen so the null distribution induces exactly p."""

    edges: np.ndarray

    @property
    def k(self) -> int:
        return self.edges.size + 1

    def bin_counts(self, sample: np.ndarray) -> np.ndarray:
        """Cell counts along the last axis: shape (..., n) gives (..., k).

        A draw lands in the cell that ``searchsorted(edges, x,
        side="right")`` names, NaN in the last one: the count below
        each edge is differenced against 0 and n.
        """
        sample = np.asarray(sample)
        rows, n = sample.shape[:-1], sample.shape[-1]
        below = [np.count_nonzero(sample < edge, axis=-1) for edge in self.edges]
        bounds = np.stack([np.zeros(rows, dtype=np.intp), *below,
                           np.full(rows, n, dtype=np.intp)], axis=-1)
        return np.diff(bounds, axis=-1)


def bin_edges(null: DistributionSpec, p: ProbabilityVector) -> BinningScheme:
    """Quantile edges of the null at the cumulative cell probabilities."""
    cumulative = np.cumsum(p.p)[:-1]
    if (cumulative >= 1.0).any():
        raise ValidationError("cumulative probability reaches 1 before the last cell")
    edges = np.array([null.quantile(c) for c in cumulative])
    if not (np.diff(edges) > 0).all():
        raise ValidationError("null quantiles did not produce increasing edges")
    edges.setflags(write=False)
    return BinningScheme(edges=edges)


def matched_normal_null(g: DistributionSpec) -> DistributionSpec:
    """Normal distribution with the same mean and standard deviation as
    the given gamma distribution."""
    if g.family != "gamma":
        raise ValidationError("matched normal null is defined for gamma alternatives")
    shape, scale = g.params
    return DistributionSpec("normal", (shape * scale, math.sqrt(shape) * scale))


@dataclass(frozen=True, eq=False)
class PowerSimConfig:
    """Everything a power run needs; results are a pure function of this.
    The basis fixes the cells, whose probabilities are ``basis.p``."""

    null: DistributionSpec
    alternative: DistributionSpec
    basis: Eigenbasis
    n: int = 200
    reps: int = 10000
    alpha: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.basis, Eigenbasis):
            raise ValidationError(f"basis must be an Eigenbasis, got {type(self.basis).__name__}")
        for name, lo, limit in (("n", 1, BLOCK_DRAWS), ("reps", 1, MAX_REPS),
                                ("master_seed", 0, 2 ** 64 - 1)):  # a Philox key word
            object.__setattr__(self, name, _integer(getattr(self, name), name, lo, limit))
        _level(self.alpha, 2)  # both critical values are finite
        if not math.isfinite(self.n / min(self.basis.p.p.tolist())):  # n / min p bounds X2
            raise ValidationError(_OVERFLOW_MESSAGE)

    def resolve_basis(self) -> Eigenbasis:
        """The basis; kept only because ``perfbench --trace 1`` times this
        method by name, as the ``power.resolve_basis`` span."""
        return self.basis


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


def _replication_streams(master_seed: int, reps: range):
    """Yield, for each replication index, the stream keyed (master seed, rep).

    One Philox serves the whole range.  Its state is reset to key
    (master seed, rep), counter 0 and an empty buffer, which gives
    exactly the draws of a fresh ``Philox(key=(master seed, rep))`` for
    a small part of the cost of building one.
    """
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    rng = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for rep in reps:
        key[1] = rep
        bitgen.state = state
        yield rng


def _run_block(cfg: PowerSimConfig, scheme: BinningScheme, chi_crit: float,
               z_crit: float, rep_range: range) -> np.ndarray:
    rows = max(1, min(BLOCK_DRAWS // cfg.n, len(rep_range)))
    block = np.empty((rows, cfg.n))
    streams = _replication_streams(cfg.master_seed, rep_range)
    rejections = np.zeros(scheme.k, dtype=np.int64)  # slot 0: X2, slots 1..k-1: T_2..T_k
    for start in range(0, len(rep_range), rows):
        samples = block[:len(rep_range[start:start + rows])]
        # zip takes a row before a stream, so no stream is skipped
        for row, rng in zip(samples, streams):
            row[:] = cfg.alternative.sample(rng, cfg.n)
        x2, components = _pearson_components(scheme.bin_counts(samples), cfg.n, cfg.basis)
        rejections[0] += np.count_nonzero(x2 > chi_crit)
        rejections[1:] += np.count_nonzero(np.abs(components) > z_crit, axis=0)
    return rejections


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_block(args: tuple, rep_range: range):
    """Fork a child that runs ``_run_block(*args, rep_range)``.

    Returns the child's pid and the read end of its pipe.  The child
    writes its int64 rejection counts, or on failure the error text, and
    exits 0 or 1 through ``os._exit``: it never returns into the caller,
    runs no exit handler and flushes no stdio buffer it inherited.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = _run_block(*args, rep_range).tobytes()
            status = 0
        except Exception as exc:
            payload = f"{type(exc).__name__}: {exc}".encode(errors="replace")
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def _run_forked(args: tuple, ranges: list[range]) -> np.ndarray:
    """Summed rejection counts of ``ranges``: the first runs here, each
    other one in a forked child, which is reaped before this returns.

    A child that fails raises InternalConsistencyError here; the others
    are killed.  A range that finds no process or pipe to spare runs
    here too.
    """
    import signal

    children = {}  # pid -> (range, pipe)
    try:
        local = [ranges[0]]
        for rep_range in ranges[1:]:
            try:
                pid, pipe = _fork_block(args, rep_range)
            except OSError:
                local.append(rep_range)
            else:
                children[pid] = (rep_range, pipe)
        totals = sum(_run_block(*args, rep_range) for rep_range in local)
        for pid, (rep_range, pipe) in list(children.items()):
            payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if status != 0 or len(payload) != totals.nbytes:
                text = " ".join(payload.decode(errors="replace").split())
                reason = text if status == 1 and text else f"exit status {status}"
                raise InternalConsistencyError(
                    f"worker for replications {rep_range.start}.."
                    f"{rep_range.stop - 1} failed: {reason}")
            totals += np.frombuffer(payload, dtype=np.int64)
        return totals
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def simulate_power(cfg: PowerSimConfig, threads: int = 1) -> PowerSimResult:
    """Estimate rejection rates for X^2 and every component statistic.

    The overall statistic is compared against the upper chi-square
    critical value with k-1 degrees of freedom; each signed component
    against the two-sided normal critical value.  ``threads`` caps the
    worker count, which is also capped by the usable CPUs, and is 1
    where the platform cannot fork or the process runs other threads.
    Each worker runs one contiguous range of replications: this process
    the first, a forked child each of the others.  The result does not
    depend on the worker count.  ``threads`` below 1 raises
    ValidationError; a failed worker raises InternalConsistencyError.
    """
    threads = _integer(threads, "threads", 1)
    scheme = bin_edges(cfg.null, cfg.resolve_basis().p)
    k = scheme.k
    # Before any fork: away from alpha = 0.05 these import scipy, once.
    args = (cfg, scheme, chi_square_critical(k - 1, cfg.alpha), normal_critical(cfg.alpha))

    # Each worker costs a process, a Philox and a block, so there is one
    # range per worker and never more workers than usable CPUs.  A fork
    # copies only the calling thread, so a lock another thread holds
    # would stay locked in the child: a process with threads forks none.
    can_fork = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(threads, _usable_cpus()) if can_fork else 1
    size = math.ceil(cfg.reps / workers)
    ranges = [range(start, min(start + size, cfg.reps))
              for start in range(0, cfg.reps, size)]
    totals = _run_forked(args, ranges)

    rates = totals / cfg.reps
    ses = np.sqrt(rates * (1.0 - rates) / cfg.reps)
    names = ("X2",) + tuple(f"T{l}" for l in range(2, k + 1))
    return PowerSimResult(statistics=names, rates=rates, standard_errors=ses,
                          reps=cfg.reps, config=cfg)
