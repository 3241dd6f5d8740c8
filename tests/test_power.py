import math
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from latinhadamard import (DistributionSpec, InternalConsistencyError,
                           PowerSimConfig, ProbabilityVector,
                           SignedLatinSquare, SizeError, ValidationError,
                           alternate_signed_square_8, bin_edges,
                           builtin_design_16, canonical_signed_square_8,
                           chi_square_critical, color, construct_latin_square,
                           design_to_eigenbasis, eigenbasis_from_latin_hadamard,
                           eigenbasis_from_sign_matrix, matched_normal_null,
                           normal_critical, preset_probability, simulate_power,
                           sylvester_hadamard)
from latinhadamard import power

import power_oracle
from power_oracle import _replication_stream


class TestDistributionSpec:
    def test_parse_grammar(self):
        assert DistributionSpec.parse("normal:0,1.3") == DistributionSpec("normal", (0, 1.3))
        assert DistributionSpec.parse("t:2") == DistributionSpec("t", (2,))
        assert DistributionSpec.parse("gamma:5,0.2") == DistributionSpec("gamma", (5, 0.2))
        assert DistributionSpec.parse("cauchy") == DistributionSpec("cauchy")

    def test_validation(self):
        with pytest.raises(ValidationError):
            DistributionSpec("normal", (0, -1))
        with pytest.raises(ValidationError):
            DistributionSpec("t", (0.5,))
        with pytest.raises(ValidationError):
            DistributionSpec("gamma", (0, 1))
        with pytest.raises(ValidationError):
            DistributionSpec.parse("weird:1")
        with pytest.raises(ValidationError):
            DistributionSpec.parse("normal:a,b")
        for text in ("normal:0,nan", "normal:0,inf", "normal:-inf,1",
                     "t:inf", "gamma:nan,1"):
            with pytest.raises(ValidationError):
                DistributionSpec.parse(text)

    @pytest.mark.parametrize("family,params", [("normal", ("a", "b")), ("t", 5)],
                             ids=["strings", "bare-number"])
    def test_parameters_that_are_not_numbers_rejected(self, family, params):
        with pytest.raises(ValidationError, match="parameters must be numbers"):
            DistributionSpec(family, params)

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValidationError, match=r"^normal takes 2 parameter\(s\), got 1$"):
            DistributionSpec("normal", (0,))

    def test_cauchy_equals_t1_quantiles(self):
        c = DistributionSpec("cauchy")
        t1 = DistributionSpec("t", (1,))
        for q in (0.1, 0.25, 0.5, 0.9):
            assert c.quantile(q) == pytest.approx(t1.quantile(q), abs=1e-9)


class TestNormalQuantile:
    quantile = DistributionSpec("normal", (0, 1)).quantile

    def test_against_library_oracle(self):
        qs = np.concatenate([np.linspace(1e-10, 1 - 1e-10, 1001),
                             [1e-14, 1 - 1e-14, 0.125, 0.5]])
        for q in qs:
            assert abs(self.quantile(q) - stats.norm.ppf(q)) < 1e-9

    def test_frozen_high_precision_value(self):
        # scipy.stats.norm.ppf(0.125) frozen as the oracle value
        assert self.quantile(0.125) == pytest.approx(-1.1503493803760079, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            self.quantile(0.0)
        with pytest.raises(ValidationError):
            self.quantile(1.0)


class TestCriticalValues:
    def test_embedded_constants_match_oracle_to_six_digits(self):
        assert normal_critical(0.05) == pytest.approx(stats.norm.ppf(0.975), abs=5e-6)
        for df in (1, 3, 7, 15):
            assert chi_square_critical(df, 0.05) == pytest.approx(
                stats.chi2.ppf(0.95, df), abs=5e-4)

    def test_general_path_uses_exact_quantiles(self):
        assert chi_square_critical(7, 0.01) == pytest.approx(stats.chi2.ppf(0.99, 7), rel=1e-12)
        assert normal_critical(0.01) == pytest.approx(stats.norm.ppf(0.995), abs=1e-9)

    @pytest.mark.parametrize("critical", [
        lambda: normal_critical(1.5),
        lambda: normal_critical(1e-17),  # 1 - alpha/2 rounds to 1
        lambda: chi_square_critical(7, 2.0),
        lambda: chi_square_critical(7, 1e-17),
        lambda: chi_square_critical(0, 0.05),
        lambda: chi_square_critical(7.5, 0.05),
    ], ids=["normal-alpha-above-one", "normal-alpha-rounds", "chi2-alpha-above-one",
            "chi2-alpha-rounds", "chi2-df-zero", "chi2-df-fraction"])
    def test_out_of_domain_arguments_rejected(self, critical):
        with pytest.raises(ValidationError):
            critical()

    def test_thirty_two_cell_critical_value_is_pinned(self):
        # df = 31 has no embedded constant: the 32-cell value comes from scipy
        assert chi_square_critical(31, 0.05) == pytest.approx(44.98534328036513, rel=1e-12)


class TestBinning:
    def test_equiprobable_edges(self):
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), preset_probability("a"))
        assert len(scheme.edges) == 7
        assert scheme.edges[3] == pytest.approx(0.0, abs=1e-12)
        assert scheme.edges[0] == pytest.approx(-1.1503493803760079, abs=1e-9)
        assert np.allclose(scheme.edges, -scheme.edges[::-1], atol=1e-12)

    def test_symmetric_preset_has_zero_middle_edge(self):
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), preset_probability("b"))
        assert scheme.edges[3] == pytest.approx(0.0, abs=1e-12)

    def test_null_samples_recover_cell_probabilities(self):
        p = preset_probability("b")
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), p)
        rng = np.random.default_rng(6)
        draws = 200 * 500
        counts = scheme.bin_counts(rng.normal(size=draws))
        freq = counts / draws
        tol = 4 * np.sqrt(p.p * (1 - p.p) / draws)
        assert (np.abs(freq - p.p) < tol).all()

    def test_block_counts_equal_searchsorted(self):
        scheme = bin_edges(DistributionSpec("normal", (0, 1)), preset_probability("c"))
        rng = np.random.default_rng(8)
        block = rng.standard_t(1.0, size=(3, 5, 40))
        specials = [np.inf, -np.inf, np.nan, *scheme.edges, *np.nextafter(
            scheme.edges, np.inf), *np.nextafter(scheme.edges, -np.inf)]
        block[0, 0, :len(specials)] = specials
        counts = scheme.bin_counts(block)
        assert counts.shape == (3, 5, 8)
        for index in np.ndindex(3, 5):
            idx = np.searchsorted(scheme.edges, block[index], side="right")
            assert np.array_equal(counts[index], np.bincount(idx, minlength=8))
        assert np.array_equal(scheme.bin_counts(block[1, 2]), counts[1, 2])

    @pytest.mark.parametrize("p, message", [
        ([0.5, 0.5, 1e-300], "cumulative probability reaches 1 before the last cell"),
        ([0.5, 1e-17, 0.5 - 1e-17], "null quantiles did not produce increasing edges")],
        ids=["cumulative-reaches-one", "equal-edges"])
    def test_degenerate_cells_rejected(self, p, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            bin_edges(DistributionSpec("normal", (0, 1)), ProbabilityVector(p))

    def test_presets(self):
        assert np.allclose(preset_probability("a").p, 1 / 8)
        assert np.allclose(preset_probability("b").p,
                           np.array([1, 2, 3, 4, 4, 3, 2, 1]) / 20)
        assert np.allclose(preset_probability("c").p,
                           np.array([1, 2, 3, 4, 1, 2, 3, 4]) / 20)
        with pytest.raises(ValidationError):
            preset_probability("d")


class TestMatchedNull:
    def test_gamma_examples(self):
        matched = matched_normal_null(DistributionSpec("gamma", (5, 0.2)))
        assert matched.family == "normal"
        assert matched.params[0] == pytest.approx(1.0)
        assert matched.params[1] == pytest.approx(math.sqrt(5) / 5)
        matched = matched_normal_null(DistributionSpec("gamma", (10, 1)))
        assert matched.params == (10.0, pytest.approx(math.sqrt(10)))
        matched = matched_normal_null(DistributionSpec("gamma", (1, 1)))
        assert matched.params == (1.0, 1.0)

    def test_rejects_other_families(self):
        with pytest.raises(ValidationError):
            matched_normal_null(DistributionSpec("normal", (0, 1)))


class TestSamplers:
    # CLT bounds at three standard errors, one million draws each
    def test_normal_mean(self):
        rng = _replication_stream(123, 0)
        x = DistributionSpec("normal", (0, 1)).sample(rng, 10 ** 6)
        assert abs(x.mean()) < 0.004

    def test_gamma_mean(self):
        rng = _replication_stream(123, 1)
        x = DistributionSpec("gamma", (5, 0.2)).sample(rng, 10 ** 6)
        assert abs(x.mean() - 1.0) < 0.002

    def test_cauchy_median(self):
        rng = _replication_stream(123, 2)
        x = DistributionSpec("cauchy").sample(rng, 10 ** 6)
        assert abs(np.median(x)) < 0.005

    def test_t_variance_direction(self):
        rng = _replication_stream(123, 3)
        x = DistributionSpec("t", (5,)).sample(rng, 10 ** 6)
        # var of t(5) is 5/3
        assert x.var() == pytest.approx(5 / 3, rel=0.02)


def _set_usable_cpus(monkeypatch, cpus):
    """Make ``power`` see this many usable CPUs; None: no affinity set and
    no CPU count."""
    if cpus is None:
        monkeypatch.delattr(power.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(power.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(power.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)


def _record_forks(monkeypatch):
    """The pids of the children ``power`` forks, recorded in this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(power.os, "fork", recording_fork)
    return pids


def _assert_reaped(pids):
    # waitpid fails on a pid that is no longer a child of this process:
    # the call has waited for it, so it is no longer running.
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _basis(preset="a", matrix=None):
    """The basis of ``matrix`` (default: the canonical square) for a preset."""
    return eigenbasis_from_latin_hadamard(matrix or canonical_signed_square_8(),
                                          preset_probability(preset))


# Sixteen cells: the order-16 design at fixed variable probabilities
# (type (1, 2, ..., 2, 1), so the weights are divided by 48), and the
# equiprobable Sylvester basis.
_DESIGN_16 = design_to_eigenbasis(builtin_design_16(),
                                  np.array([1, 2, 3, 4, 5, 4, 3, 2, 1]) / 48)
_SYLVESTER_16 = eigenbasis_from_sign_matrix(sylvester_hadamard(4),
                                            ProbabilityVector.equiprobable(16))


class TestSimulation:
    def config(self, alt=None, preset="a", reps=2000, seed=42, matrix=None):
        return PowerSimConfig(
            null=DistributionSpec("normal", (0, 1)),
            alternative=alt or DistributionSpec("normal", (0, 1)),
            basis=_basis(preset, matrix), n=200, reps=reps, master_seed=seed)

    def test_null_calibration(self):
        reps = 4000
        result = simulate_power(self.config(reps=reps), threads=2)
        se = math.sqrt(0.05 * 0.95 / reps)
        for name, rate, _ in result.rows():
            assert abs(rate - 0.05) < 3 * se + 0.005, (name, rate)

    def test_statistics_order_and_se(self):
        result = simulate_power(self.config(reps=100))
        assert result.statistics == ("X2", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
        for _, rate, se in result.rows():
            assert se == pytest.approx(math.sqrt(rate * (1 - rate) / 100), abs=1e-12)

    def test_scale_alternative_smoke(self):
        result = simulate_power(
            self.config(alt=DistributionSpec("normal", (0, 1.3)), reps=2000),
            threads=4)
        rates = result.as_dict()
        assert 0.82 < rates["X2"] < 0.90
        assert 0.81 < rates["T6"] < 0.89
        assert rates["T8"] < 0.09

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # Eight usable CPUs, so that 2, 3 and 8 really are the worker counts.
        _set_usable_cpus(monkeypatch, 8)
        t2 = DistributionSpec("t", (2,))
        configs = [self.config(alt=t2, preset="b", reps=801)]
        configs += [PowerSimConfig(null=DistributionSpec("normal", (0, 1)), alternative=t2,
                                   basis=basis, n=200, reps=801, master_seed=42)
                    for basis in (_DESIGN_16, _SYLVESTER_16)]
        for cfg in configs:
            baseline = simulate_power(cfg, threads=1)
            for threads in (2, 3, 8):
                other = simulate_power(cfg, threads=threads)
                assert np.array_equal(baseline.rates, other.rates)

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (None, 1)])
    def test_pool_never_exceeds_cpu_count(self, monkeypatch, cpus, workers):
        # cpus: the usable CPUs; None: neither an affinity set nor a CPU count.
        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        _set_usable_cpus(monkeypatch, cpus)
        forked = _record_forks(monkeypatch)
        result = simulate_power(cfg, threads=64)
        # One range per worker: this process runs the first and a child
        # each of the others, so a single range forks nothing.
        assert len(forked) == workers - 1
        assert np.array_equal(result.rates, baseline.rates)

    def test_chunks_never_exceed_cpu_count(self, monkeypatch):
        here, forked = [], []
        run_block, fork_block = power._run_block, power._fork_block

        def recording_run_block(*args):
            here.append(args[-1])  # a child's calls never reach this list
            return run_block(*args)

        def recording_fork_block(args, rep_range):
            forked.append(rep_range)
            return fork_block(args, rep_range)

        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        monkeypatch.setattr(power, "_run_block", recording_run_block)
        monkeypatch.setattr(power, "_fork_block", recording_fork_block)
        _set_usable_cpus(monkeypatch, 2)
        result = simulate_power(cfg, threads=10 ** 6)
        assert here == [range(0, 32)] and forked == [range(32, 64)]
        assert np.array_equal(result.rates, baseline.rates)

    def test_workers_capped_by_affinity_not_cpu_count(self, monkeypatch):
        monkeypatch.setattr(power.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(power.os, "cpu_count", lambda: 8)
        forked = _record_forks(monkeypatch)
        simulate_power(self.config(reps=64), threads=8)
        assert forked == []

    def test_without_fork_one_worker_runs_everything(self, monkeypatch):
        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        _set_usable_cpus(monkeypatch, 4)
        monkeypatch.delattr(power.os, "fork")
        result = simulate_power(cfg, threads=4)
        assert np.array_equal(result.rates, baseline.rates)

    def test_process_with_threads_forks_nothing(self, monkeypatch):
        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        _set_usable_cpus(monkeypatch, 2)
        forked = _record_forks(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(60,))
        waiter.start()
        try:
            result = simulate_power(cfg, threads=2)
        finally:
            release.set()
            waiter.join(timeout=60)
        assert not waiter.is_alive()
        assert forked == []
        assert np.array_equal(result.rates, baseline.rates)

    def test_no_worker_outlives_the_call(self, monkeypatch):
        cfg = self.config(reps=64)
        _set_usable_cpus(monkeypatch, 2)
        forked = _record_forks(monkeypatch)
        simulate_power(cfg, threads=2)
        assert len(forked) == 1
        _assert_reaped(forked)

    def test_failing_worker_raises_and_is_reaped(self, monkeypatch):
        run_block = power._run_block

        def failing_away_from_zero(*args):
            if args[-1].start != 0:
                raise RuntimeError("worker\nfailed")
            return run_block(*args)

        monkeypatch.setattr(power, "_run_block", failing_away_from_zero)
        _set_usable_cpus(monkeypatch, 2)
        forked = _record_forks(monkeypatch)
        with pytest.raises(InternalConsistencyError,
                           match=r"^worker for replications 32..63 failed: "
                                 r"RuntimeError: worker failed$"):
            simulate_power(self.config(reps=64), threads=2)
        _assert_reaped(forked)

    def test_killed_worker_reports_its_exit_status(self, monkeypatch):
        run_block = power._run_block

        def killed_away_from_zero(*args):
            if args[-1].start != 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_block(*args)

        monkeypatch.setattr(power, "_run_block", killed_away_from_zero)
        _set_usable_cpus(monkeypatch, 2)
        with pytest.raises(InternalConsistencyError, match="32..63 failed: exit status -9"):
            simulate_power(self.config(reps=64), threads=2)

    def test_failure_here_kills_and_reaps_the_workers(self, monkeypatch):
        run_block = power._run_block

        def failing_at_zero(*args):
            if args[-1].start == 0:
                raise RuntimeError("here")
            time.sleep(60)  # the child is killed long before this ends
            return run_block(*args)

        monkeypatch.setattr(power, "_run_block", failing_at_zero)
        _set_usable_cpus(monkeypatch, 3)
        forked = _record_forks(monkeypatch)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="here"):
            simulate_power(self.config(reps=64), threads=3)
        assert time.monotonic() - started < 30
        assert len(forked) == 2
        _assert_reaped(forked)

    def test_failed_fork_runs_the_range_here(self, monkeypatch):
        pipes = []
        pipe = os.pipe

        def recording_pipe():
            pipes.extend(pipe())
            return pipes[-2:]

        def no_fork():
            raise BlockingIOError("no process to spare")

        cfg = self.config(reps=64)
        baseline = simulate_power(cfg, threads=1)
        _set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(power.os, "pipe", recording_pipe)
        monkeypatch.setattr(power.os, "fork", no_fork)
        result = simulate_power(cfg, threads=2)
        assert np.array_equal(result.rates, baseline.rates)
        assert len(pipes) == 2
        for fd in pipes:  # both ends were closed again
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_stdio_written_before_a_forked_run_appears_once(self, tmp_path):
        # stdout to a file is block-buffered and stderr line-buffered, so
        # both texts are still in their buffers when the child is forked.
        script = (
            "import os, sys\n"
            "from latinhadamard import power\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print('before')\n"
            "sys.stderr.write('no newline')\n"
            "from latinhadamard import chisq\n"
            "basis = chisq.eigenbasis_from_latin_hadamard(\n"
            "    chisq.canonical_signed_square_8(), power.preset_probability('b'))\n"
            "cfg = power.PowerSimConfig(null=power.DistributionSpec('normal', (0, 1)),\n"
            "    alternative=power.DistributionSpec('t', (2,)), basis=basis, n=50, reps=40)\n"
            "power.simulate_power(cfg, threads=2)\n"
            "print('after')\n")
        out, err = tmp_path / "out.txt", tmp_path / "err.txt"
        env = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        with open(out, "w") as stdout, open(err, "w") as stderr:
            subprocess.run([sys.executable, "-c", script], stdout=stdout,
                           stderr=stderr, env=env, check=True, timeout=120)
        assert out.read_text() == "before\nafter\n"
        assert err.read_text() == "no newline"

    def test_seed_changes_results(self):
        a = simulate_power(self.config(seed=1, reps=500))
        b = simulate_power(self.config(seed=2, reps=500))
        assert not np.array_equal(a.rates, b.rates)

    def test_reset_stream_equals_fresh_philox_after_partial_buffer(self):
        reps = [5, 2 ** 40, 5, 0]
        streams = power._replication_streams(2 ** 64 + 9, reps)
        for rep, rng in zip(reps, streams):
            expected = _replication_stream(2 ** 64 + 9, rep)
            assert np.array_equal(rng.gamma(0.5, 2.0, 3), expected.gamma(0.5, 2.0, 3))
            assert np.array_equal(rng.standard_t(2.0, 5), expected.standard_t(2.0, 5))
            # Leave half a 64-bit word and a part-used buffer for the next reset.
            rng.integers(0, 2 ** 32, 1, dtype=np.uint32)
            while rng.bit_generator.state["buffer_pos"] == 4:
                rng.random()
            assert rng.bit_generator.state["has_uint32"] == 1

    def test_replication_streams_are_independent_of_order(self):
        x = _replication_stream(7, 3).normal(size=4)
        _ = _replication_stream(7, 99).normal(size=100)
        y = _replication_stream(7, 3).normal(size=4)
        assert np.array_equal(x, y)

    def test_explicit_matrix_source(self):
        cfg = self.config(matrix=alternate_signed_square_8(), reps=400)
        result = simulate_power(cfg)
        assert result.reps == 400

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValidationError):
            simulate_power(self.config(reps=10), threads=threads)

    @pytest.mark.parametrize("threads", [math.nan, 2.5])
    def test_threads_must_be_an_integer(self, threads):
        with pytest.raises(ValidationError, match="threads must be an integer"):
            simulate_power(self.config(reps=10), threads=threads)

    def test_matrix_is_checked_for_orthogonality(self):
        entries = alternate_signed_square_8().signed_entries()
        entries[1, 2] = -entries[1, 2]
        with pytest.raises(ValidationError, match="not a Latin-Hadamard matrix"):
            _basis(matrix=SignedLatinSquare(entries))

    @pytest.mark.parametrize("basis", [canonical_signed_square_8(), None,
                                       _SYLVESTER_16.matrix],
                             ids=["signed-square", "none", "ndarray"])
    def test_basis_must_be_an_eigenbasis(self, basis):
        with pytest.raises(ValidationError, match="^basis must be an Eigenbasis, got "):
            PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                           alternative=DistributionSpec("normal", (0, 1)), basis=basis)

    def test_size_guard(self):
        with pytest.raises(SizeError):
            self.config(reps=power.MAX_REPS + 1)
        with pytest.raises(SizeError):
            PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                           alternative=DistributionSpec("normal", (0, 1)),
                           basis=_basis(), n=power.BLOCK_DRAWS + 1)

    @pytest.mark.parametrize("field,value", [("n", math.nan), ("n", 200.0), ("reps", 10.0),
                                             ("master_seed", 1.5)])
    def test_config_integer_fields(self, field, value):
        with pytest.raises(ValidationError, match=f"^{field} must be an? "):
            PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                           alternative=DistributionSpec("normal", (0, 1)),
                           basis=_basis(), **{field: value})

    @pytest.mark.parametrize("seed,error", [(2 ** 64, SizeError), (-1, ValidationError)])
    def test_seed_outside_one_philox_key_word_rejected(self, seed, error):
        # A seed is one 64-bit Philox key word; wrapping would alias 2**64 to 0.
        with pytest.raises(error, match="^master_seed ") as caught:
            self.config(seed=seed)
        assert (caught.type is SizeError) == (error is SizeError)

    def test_numpy_seed_is_stored_as_an_int_and_runs_the_same_streams(self):
        top = 2 ** 64 - 1
        from_numpy = self.config(seed=np.uint64(top), reps=50)
        assert type(from_numpy.master_seed) is int and from_numpy.master_seed == top
        assert simulate_power(from_numpy).rows() == simulate_power(
            self.config(seed=top, reps=50)).rows()

    def test_p_whose_x2_can_overflow_rejected(self):
        # n / min p bounds the X2 of n counts: the smallest p that keeps
        # it finite is accepted and runs, the next float below is not.
        def config(smallest):
            p = ProbabilityVector([smallest] + [0.125] * 6 + [0.25])
            return PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                                  alternative=DistributionSpec("cauchy"),
                                  basis=eigenbasis_from_latin_hadamard(
                                      canonical_signed_square_8(), p), n=200, reps=20)

        inside = 200 / sys.float_info.max
        assert math.isfinite(simulate_power(config(inside)).rates.sum())
        with pytest.raises(ValidationError, match="^the Pearson statistic overflows: "
                                                  "some expected cell counts are too small$"):
            config(math.nextafter(inside, 0))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            self.config(reps=0)
        with pytest.raises(ValidationError):
            PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                           alternative=DistributionSpec("normal", (0, 1)),
                           basis=_basis(), alpha=1.5)


_BASES = {
    "k2": eigenbasis_from_latin_hadamard(color(construct_latin_square(1), ()),
                                         ProbabilityVector.proportional_to((3, 7))),
    "k4": eigenbasis_from_latin_hadamard(color(construct_latin_square(2), (1,)),
                                         ProbabilityVector.proportional_to((1, 2, 4, 3))),
    "design16": _DESIGN_16,
    "sylvester16": _SYLVESTER_16,
}
_FAMILIES = ["normal:0.3,1.2", "t:3", "cauchy", "gamma:2,0.5"]


class TestBlockEngineAgainstOracle:
    """The block engine's rejection counts equal the per-replication oracle's."""

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("cells", ["a", "b", "c", "k2", "k4", "design16", "sylvester16"])
    @pytest.mark.parametrize("alt", _FAMILIES)
    def test_rejections_equal_oracle(self, monkeypatch, alt, cells, n):
        basis = _BASES.get(cells) or _basis(cells)
        cfg = PowerSimConfig(null=DistributionSpec("normal", (0.1, 1.1)),
                             alternative=DistributionSpec.parse(alt), basis=basis, n=n,
                             reps=1, master_seed=20260811)
        inputs = (cfg, bin_edges(cfg.null, basis.p),
                  chi_square_critical(basis.k - 1, cfg.alpha), normal_critical(cfg.alpha))
        reps = range(3, 3 + 157)
        expected = power_oracle.run_block(*inputs, reps)
        assert np.array_equal(power._run_block(*inputs, reps), expected)
        # Blocks of 24 draws: 24, 3 and 1 replications per block at n = 1, 7, 200,
        # so 157 replications end in a partial block.
        monkeypatch.setattr(power, "BLOCK_DRAWS", 24)
        assert np.array_equal(power._run_block(*inputs, reps), expected)

    def test_block_rows_bounded_by_block_draws(self, monkeypatch):
        shapes = []
        original = power.BinningScheme.bin_counts

        def recording(self, sample):
            shapes.append(sample.shape)
            return original(self, sample)

        monkeypatch.setattr(power.BinningScheme, "bin_counts", recording)
        monkeypatch.setattr(power, "BLOCK_DRAWS", 1000)
        cfg = PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                             alternative=DistributionSpec("t", (2,)),
                             basis=_basis("b"), n=30, reps=100, master_seed=4)
        simulate_power(cfg)
        assert shapes == [(33, 30), (33, 30), (33, 30), (1, 30)]


_SCENARIOS = settings(max_examples=8, deadline=None, derandomize=True, database=None)


@_SCENARIOS
@given(alt=st.sampled_from(_FAMILIES), preset=st.sampled_from(sorted(power.PRESET_WEIGHTS)),
       n=st.integers(1, 60), reps=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1))
def test_seeded_runs_repeat_whatever_the_worker_count(alt, preset, n, reps, seed):
    cfg = PowerSimConfig(null=DistributionSpec("normal", (0, 1)),
                         alternative=DistributionSpec.parse(alt), basis=_basis(preset),
                         n=n, reps=reps, master_seed=seed)
    rates = simulate_power(cfg).rates
    assert np.array_equal(simulate_power(cfg).rates, rates)
    assert np.array_equal(simulate_power(cfg, threads=2).rates, rates)
