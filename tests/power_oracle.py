"""Replication by replication: the slow, independent power oracle.

This is the original simulation loop.  Each replication builds a fresh
Philox generator keyed by (master seed, replication index), bins its
sample with a 1-D ``searchsorted`` and ``bincount``, and projects the
scaled residuals with one matrix-vector product.  It shares no stream,
binning or projection code with the library's block engine in
``power._run_block``, so tests can check one against the other.
"""

import numpy as np


def _replication_stream(master_seed: int, rep: int) -> np.random.Generator:
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_block(cfg, scheme, chi_crit: float, z_crit: float,
              rep_range: range) -> np.ndarray:
    """Rejection counts over rep_range: slot 0 X2, slots 1..k-1 T_2..T_k.

    The expected counts, their roots and the projection columns come
    from ``cfg.basis`` here, not from the engine.  The critical values
    are taken as given: at alpha = 0.05 the embedded 6-digit constants
    decide ties, so both sides must compare against the same numbers.
    """
    k = cfg.basis.k
    expected = cfg.n * cfg.basis.p.p
    sqrt_expected = np.sqrt(expected)
    vectors = cfg.basis.matrix[:, 1:]
    rejections = np.zeros(k, dtype=np.int64)
    for rep in rep_range:
        rng = _replication_stream(cfg.master_seed, rep)
        sample = cfg.alternative.sample(rng, cfg.n)
        idx = np.searchsorted(scheme.edges, sample, side="right")
        counts = np.bincount(idx, minlength=k)
        y = (counts - expected) / sqrt_expected
        x2 = float(y @ y)
        components = vectors.T @ y
        if x2 > chi_crit:
            rejections[0] += 1
        rejections[1:] += np.abs(components) > z_crit
    return rejections
