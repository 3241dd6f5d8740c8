"""The benchmark's workloads.

A workload generates its inputs from the workload seed when it is
constructed (that is the timed set-up), then yields passes of operations
forever.  An operation is a zero-argument call into the package, timed
by the harness, and a check of its result by an oracle in ``oracles``.
Workloads call the package through module attributes (``coloring.color``,
``cli.run``) so that the traced run sees the wrapped functions.

Every workload is closed-loop and driven from one process: the next
operation starts when the previous one and its check have finished.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from latinhadamard import algebra, chisq, cli, coloring, design, latin, power

from oracles import (all_zero_divisors, check_basis, check_partition,
                     design_identity_holds, is_latin,
                     orthogonal_at_points, quads_valid, random_points, require)

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))


@dataclass
class Op:
    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any], None]
    work: float = 0.0
    probe: bool = False  # malformed input: outcome is counted, not timed


def call_cli(argv):
    """Run the CLI in-process; return (exit code, stdout, stderr, exception)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # a traceback the user would see
        return None, out.getvalue(), err.getvalue(), exc
    return code, out.getvalue(), err.getvalue(), None


def require_clean_exit(result) -> str:
    code, out, err, exc = result
    require(exc is None, f"uncaught {type(exc).__name__}: {exc}")
    require(code == 0, f"exit code {code}: {err.strip()}")
    require(err == "", f"unexpected stderr: {err.strip()}")
    return out


class Workload:
    """Yields passes forever; a pass is a list (or iterator) of operations.

    The end-to-end metrics are taken over whole passes, so a pass holds
    each kind of operation in the share that the workload means to weigh.
    """

    name = ""
    work_unit = ""

    def passes(self):
        raise NotImplementedError


class Census(Workload):
    """Exact census at w = 2, 3, 4 with the algebra and design checks."""

    name = "census"
    work_unit = "candidate"
    CANDIDATES = {2: 2, 3: 16, 4: 2048}
    SURVIVORS = {2: 2, 3: 16, 4: 0}
    DIVISORS = {3: 0, 4: 336, 5: 5040}

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.points = random_points(rng, 2, 16)
        self.squares = {w: latin.construct_latin_square(w) for w in self.CANDIDATES}

    def passes(self):
        while True:
            yield self._one_pass()

    def _one_pass(self):
        for w in self.CANDIDATES:
            yield Op("quads", lambda w=w: self._quads(w), lambda r, w=w: self._check_quads(w, r))
        for m in self.DIVISORS:
            yield Op("zd_list", lambda m=m: self._divisors(m),
                     lambda r, m=m: self._check_divisors(m, r))
        yield Op("design", self._design, self._check_design)
        for w, count in self.CANDIDATES.items():
            candidates = coloring.enumerate_colorings(self.squares[w])
            tally = {"seen": 0, "valid": 0}
            for _ in range(count):
                yield Op("candidate", lambda it=candidates: self._candidate(it),
                         lambda r, w=w, it=candidates, t=tally: self._check_candidate(w, it, t, r),
                         work=1.0)

    @staticmethod
    def _quads(w):
        square = latin.construct_latin_square(w)
        return square, list(latin.enumerate_abba_quads(square))

    def _check_quads(self, w, result):
        square, quads = result
        n = 2 ** w
        require(is_latin(square.entries) and (square.entries == square.entries.T).all(),
                f"w={w}: square is not a symmetric Latin square")
        require(len(quads) == n * (n - 1) // 2 * n // 2,
                f"w={w}: {len(quads)} AB-BA quads, expected C(n,2)*n/2")
        require(quads_valid(square.entries, quads), f"w={w}: an AB-BA quad is wrong")

    @staticmethod
    def _divisors(m):
        table = algebra.cayley_dickson_table(m)
        return table, list(algebra.find_zero_divisors(table))

    def _check_divisors(self, m, result):
        table, divisors = result
        pairs = np.array([(z.i, z.j, z.s1, z.k, z.l, z.s2) for z in divisors],
                         dtype=np.int64).reshape(-1, 6)
        require(len(divisors) == self.DIVISORS[m],
                f"dim {2 ** m}: {len(divisors)} zero divisors, expected {self.DIVISORS[m]}")
        require(len({tuple(p) for p in pairs}) == len(divisors),
                f"dim {2 ** m}: repeated zero divisors")
        require(all_zero_divisors(table.signs, table.indices, pairs),
                f"dim {2 ** m}: a listed pair is not a zero divisor")

    @staticmethod
    def _design():
        d = design.builtin_design_16()
        return d, design.verify_design(d)

    def _check_design(self, result):
        d, valid = result
        require(valid is True, "verify_design rejected the built-in design")
        require(design_identity_holds(d.entries, d.type, self.points),
                "design identity fails at a random point")

    @staticmethod
    def _candidate(candidates):
        H = next(candidates)
        valid = coloring.is_latin_hadamard(H)
        divisor = next(algebra.find_zero_divisors(algebra.table_from_signed_square(H)), None)
        return H, valid, divisor

    def _check_candidate(self, w, candidates, tally, result):
        H, valid, divisor = result
        S, G = H.square.entries, H.signs
        expected = orthogonal_at_points(S, G, self.points)
        require(valid == expected,
                f"w={w} choices {H.choices}: is_latin_hadamard {valid}, oracle {expected}")
        require((divisor is None) == expected,
                f"w={w} choices {H.choices}: zero divisor {divisor} but orthogonal={expected}")
        if divisor is not None:
            pair = (divisor.i, divisor.j, divisor.s1, divisor.k, divisor.l, divisor.s2)
            require(all_zero_divisors(G, S, np.array([pair], dtype=np.int64)),
                    f"w={w}: {divisor} does not multiply to zero")
        tally["seen"] += 1
        tally["valid"] += bool(valid)
        if tally["seen"] == self.CANDIDATES[w]:
            require(next(candidates, None) is None, f"w={w}: more candidates than expected")
            require(tally["valid"] == self.SURVIVORS[w],
                    f"w={w}: {tally['valid']} survivors, expected {self.SURVIVORS[w]}")


def _power_argv(scenario, n, reps, threads):
    return ["power", *GOLDEN["scenarios"][scenario]["args"], "--n", str(n),
            "--reps", str(reps), "--seed", str(GOLDEN["master_seed"]),
            "--threads", str(threads), "--format", "csv"]


def _check_power_csv(result, sha256, published):
    out = require_clean_exit(result)
    digest = hashlib.sha256(out.encode()).hexdigest()
    require(digest == sha256, f"power csv sha256 {digest} != golden {sha256}")
    rates = {}
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        require(len(fields) == 3, f"power csv row {line!r} has {len(fields)} fields, not 3")
        rates[fields[0]] = float(fields[1])
    for stat, target in published.items():
        require(stat in rates and abs(rates[stat] - target) <= 0.02,
                f"{stat} rate {rates.get(stat)} not within 0.02 of published {target}")


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PowerRun:
    """One ``power --format csv`` call and the golden hash of its output."""

    scenario: str
    n: int
    reps: int
    threads: int
    sha256: str
    published: dict


_LARGE = GOLDEN["large_n"]
# The three phases of the power study: (workload name, work unit, runs).
POWER_PHASES = [
    ("power", "replication",
     [PowerRun(name, 200, 10000, 1, spec["sha256"], spec["published"])
      for name, spec in GOLDEN["scenarios"].items()]),
    ("power_threads", "replication",
     [PowerRun(GOLDEN["threads_scenario"], 200, 10000, available_cpus(),
               GOLDEN["threads_sha256"], {})]),
    ("power_large_n", "draw",
     [PowerRun(_LARGE["scenario"], _LARGE["n"], _LARGE["reps"], 1, _LARGE["sha256"], {})]),
]


class Power(Workload):
    """Monte Carlo power studies run through the CLI, checked against golden hashes.

    A pass is every run of the phase once, in an order drawn from the
    workload seed; the scenarios keep the published master seed, so the
    golden hashes apply whatever the workload seed.
    """

    def __init__(self, name: str, work_unit: str, runs, seed: int, workdir: Path):
        self.name, self.work_unit = name, work_unit
        order = np.random.default_rng(seed).permutation(len(runs))
        self.ops = [self._op(runs[i]) for i in order]

    def passes(self):
        while True:
            yield self.ops

    def _op(self, run):
        argv = _power_argv(run.scenario, run.n, run.reps, run.threads)
        work = run.reps * (run.n if self.work_unit == "draw" else 1)
        return Op(run.scenario, lambda: call_cli(argv),
                  lambda r: _check_power_csv(r, run.sha256, run.published),
                  work=float(work))


def _random_p(rng, k):
    weights = rng.uniform(0.2, 2.0, size=k)
    return weights / weights.sum()


class Decompose(Workload):
    """Library cases: build a basis for a fresh p, then decompose fresh counts.

    A pass is one case of each kind: k=2, 4 and 8 through
    ``eigenbasis_from_latin_hadamard``, the order-16 design and the
    order-16 Sylvester basis.  Nothing says which sizes users decompose
    most, so each kind weighs the same.
    """

    name = "decompose"
    work_unit = "case"
    KINDS = (2, 4, 8, "design16", "sylvester16")
    POOL = 256

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.squares = {
            2: coloring.color(latin.construct_latin_square(1), ()),
            4: coloring.color(latin.construct_latin_square(2), (1,)),
            8: chisq.canonical_signed_square_8(),
        }
        self.design = design.builtin_design_16()
        self.sylvester = chisq.sylvester_hadamard(4)
        self.cases = {}
        for kind in self.KINDS:
            pool = []
            for _ in range(self.POOL):
                n = int(rng.integers(50, 500))
                if kind == "design16":
                    raw = rng.uniform(0.3, 2.0, size=9)
                    pvars = raw / np.dot(self.design.type, raw)
                    p = pvars[np.abs(self.design.entries[0]) - 1]
                    pool.append((pvars, p, rng.multinomial(n, p / p.sum())))
                else:
                    k = 16 if kind == "sylvester16" else kind
                    p = np.full(16, 1 / 16) if kind == "sylvester16" else _random_p(rng, k)
                    pool.append((None, p, rng.multinomial(n, p)))
            self.cases[kind] = pool

    def passes(self):
        for index in itertools.count():
            yield [self._case(kind, self.cases[kind][index % self.POOL]) for kind in self.KINDS]

    def _case(self, kind, case):
        pvars, p, counts = case
        if kind == "design16":
            def fn():
                basis = design.design_to_eigenbasis(self.design, pvars)
                return basis, chisq.decompose(chisq.CellCounts(counts), basis.p, basis)
        elif kind == "sylvester16":
            def fn():
                pv = chisq.ProbabilityVector.equiprobable(16)
                basis = chisq.eigenbasis_from_sign_matrix(self.sylvester, pv)
                return basis, chisq.decompose(chisq.CellCounts(counts), pv, basis)
        else:
            H = self.squares[kind]

            def fn():
                pv = chisq.ProbabilityVector(p)
                basis = chisq.eigenbasis_from_latin_hadamard(H, pv)
                return basis, chisq.decompose(chisq.CellCounts(counts), pv, basis)

        def check(result):
            basis, dec = result
            check_basis(np.asarray(basis.matrix), p)
            check_partition(dec.x2, dec.components, counts, p, dec.sum_check)

        return Op(f"k{kind}" if isinstance(kind, int) else kind, fn, check, work=1.0)


class DecomposeCli(Workload):
    """In-process ``decompose`` CLI calls with fresh p and counts per call.

    A pass is one valid call of each kind -- the default matrix, a bare
    matrix file, an ``enumerate`` record file and ``--matrix builtin:<i>``
    -- plus one malformed matrix file (ragged, non-Latin, or with a
    float entry such as 1.7) whose expected outcome is exit 1 with a
    one-line message.  Nothing says which kind users call most, so each
    weighs the same; ``builtin:<i>`` re-enumerates all 16 survivors and
    so takes most of a pass.
    """

    name = "decompose_cli"
    work_unit = "call"
    CYCLE = ("default", "bare", "record", "builtin", "malformed")
    MALFORMED = ("ragged", "non_latin", "float")
    POOL = 256
    FILES = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        square = latin.construct_latin_square(3)
        survivors = [H for H in coloring.enumerate_colorings(square)
                     if coloring.is_latin_hadamard(H)]
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = {kind: [] for kind in ("bare", "record") + self.MALFORMED}
        for i in range(self.FILES):
            H = survivors[int(rng.integers(len(survivors)))]
            entries = H.signed_entries().astype(int).tolist()
            record = {"w": 3, "choices": coloring.choices_to_bitstring(H.choices),
                      "H": entries, "latin_hadamard": True}
            for kind, payload in (("bare", entries), ("record", record),
                                  ("ragged", _ragged(entries, rng)),
                                  ("non_latin", _non_latin(entries, rng)),
                                  ("float", _float_entry(entries, rng))):
                path = workdir / f"{kind}-{i}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                self.files[kind].append(str(path))
        self.calls = []
        for _ in range(self.POOL):
            p = _random_p(rng, 8)
            counts = rng.multinomial(int(rng.integers(50, 500)), p)
            self.calls.append((p, counts, int(rng.integers(16)), int(rng.integers(self.FILES))))

    def passes(self):
        index = 0
        while True:
            ops = []
            for kind in self.CYCLE:
                p, counts, builtin, file_index = self.calls[index % self.POOL]
                argv = ["decompose", "--p", ",".join(repr(float(v)) for v in p),
                        "--counts", ",".join(str(int(v)) for v in counts)]
                if kind == "malformed":
                    bad = self.MALFORMED[(index // len(self.CYCLE)) % len(self.MALFORMED)]
                    argv += ["--matrix", self.files[bad][file_index]]
                    ops.append(Op(f"malformed_{bad}", lambda a=argv: call_cli(a),
                                  _check_malformed, probe=True))
                else:
                    if kind == "builtin":
                        argv += ["--matrix", f"builtin:{builtin}"]
                    elif kind in ("bare", "record"):
                        argv += ["--matrix", self.files[kind][file_index]]
                    ops.append(Op(kind, lambda a=argv: call_cli(a),
                                  lambda r, p=p, c=counts: self._check_valid(p, c, r),
                                  work=1.0))
                index += 1
            yield ops

    @staticmethod
    def _check_valid(p, counts, result):
        out = require_clean_exit(result)
        payload = json.loads(out)
        check_partition(payload["X2"], payload["components"], counts, p, payload["sum_check"])


def _check_malformed(result):
    """Invalid input must give exit 1 and a one-line message, nothing else."""
    code, out, err, exc = result
    require(exc is None, f"uncaught {type(exc).__name__}: {exc}")
    require(code == 1, f"exit {code}, expected 1")
    require(out == "" and err.endswith("\n") and err.count("\n") == 1,
            f"expected one line on stderr, got {err!r}")


def _ragged(entries, rng):
    rows = [list(row) for row in entries]
    rows[int(rng.integers(len(rows)))].pop()
    return rows


def _non_latin(entries, rng):
    rows = [list(row) for row in entries]
    n = len(rows)
    i, j = (int(v) for v in rng.integers(n, size=2))
    old = abs(rows[i][j])
    new = int(rng.choice([v for v in range(1, n + 3) if v != old]))
    rows[i][j] = int(math.copysign(new, rows[i][j]))
    return rows


def _float_entry(entries, rng):
    rows = [list(row) for row in entries]
    n = len(rows)
    i, j = (int(v) for v in rng.integers(n, size=2))
    rows[i][j] = rows[i][j] + math.copysign(0.7, rows[i][j])
    return rows


WORKLOADS = {cls.name: cls for cls in (Census, Decompose, DecomposeCli)}
for _name, _unit, _runs in POWER_PHASES:
    WORKLOADS[_name] = functools.partial(Power, _name, _unit, _runs)


def trace_targets():
    """(span name, owner, attribute, options) for every traced function."""
    return [
        ("latin.abba_quads", latin, "enumerate_abba_quads", {"iterates": True}),
        ("coloring.color", coloring, "color", {}),
        ("coloring.orthogonality", coloring, "is_latin_hadamard", {"count_true": True}),
        ("algebra.table", algebra, "table_from_signed_square", {}),
        ("algebra.table", algebra, "cayley_dickson_table", {}),
        ("algebra.zero_divisors", algebra, "find_zero_divisors", {"iterates": True}),
        ("design.verify", design, "verify_design", {}),
        ("design.eigenbasis", design, "design_to_eigenbasis", {}),
        ("chisq.eigenbasis", chisq, "eigenbasis_from_latin_hadamard", {}),
        ("chisq.eigenbasis", chisq, "eigenbasis_from_sign_matrix", {}),
        ("chisq.decompose", chisq, "decompose", {}),
        ("power", power, "simulate_power", {}),
        ("power.resolve_basis", power.PowerSimConfig, "resolve_basis", {}),
        ("power.edges", power, "bin_edges", {}),
        ("power.sample", power.DistributionSpec, "sample", {}),
        ("power.bin", power.BinningScheme, "bin_counts", {}),
        ("cli", cli, "run", {}),
    ]
