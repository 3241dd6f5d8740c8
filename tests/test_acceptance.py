"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them live); tolerances are fixed here and nowhere else.  Criteria 1-8
are exact or tight-numerical; criteria 9-10 are statistical
reproductions of the published power study at fixed seed.
"""

import time

import numpy as np

from latinhadamard import (CellCounts, DistributionSpec, ProbabilityVector,
                           PowerSimConfig, alternate_signed_square_8,
                           builtin_design_16, canonical_signed_square_8,
                           cayley_dickson_table, color, construct_latin_square,
                           decompose, design_to_eigenbasis,
                           eigen_interlacing_check,
                           eigenbasis_from_latin_hadamard,
                           eigenbasis_from_sign_matrix, enumerate_colorings,
                           find_zero_divisors, is_latin_hadamard,
                           matched_normal_null, preset_probability, radon,
                           sigma_star, simulate_power, sylvester_hadamard,
                           table_from_signed_square, verify_design)
from latinhadamard.cli import run as cli_run

from design_oracle import monomial_identity_holds
from gram_oracle import gram_is_latin_hadamard
from reference_tables import (LATIN_SQUARE_16, QUATERNION_TABLE,
                              SIGNED_SQUARE_8, VALID_SIGNED_SQUARES_4,
                              VALID_SIGNED_SQUARES_8)

MASTER_SEED = 20260811
POWER_REPS = 10000
POWER_N = 200
POWER_TOL = 0.02
CALIBRATION_BAND = (0.04, 0.06)


def report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def survivors(w):
    square = construct_latin_square(w)
    return [H for H in enumerate_colorings(square) if is_latin_hadamard(H)]


def as_set(matrices):
    return {tuple(tuple(int(v) for v in row) for row in m) for m in matrices}


def test_criterion_1_enumeration_census():
    start = time.time()
    counts = {}
    valid = {}
    for w in (2, 3, 4):
        square = construct_latin_square(w)
        total = passed = 0
        for H in enumerate_colorings(square):
            total += 1
            passed += is_latin_hadamard(H)
        counts[w], valid[w] = total, passed
    elapsed = time.time() - start
    ok = (counts == {2: 2, 3: 16, 4: 2048}
          and valid == {2: 2, 3: 16, 4: 0}
          and elapsed < 60)
    report(1, ok, f"candidates {counts}, survivors {valid}, {elapsed:.1f}s")


def test_criterion_2_survivor_set_equality():
    ok4 = as_set(H.signed_entries() for H in survivors(2)) == as_set(VALID_SIGNED_SQUARES_4)
    ok8 = as_set(H.signed_entries() for H in survivors(3)) == as_set(VALID_SIGNED_SQUARES_8)
    report(2, ok4 and ok8,
           f"4x4 set equality {ok4}, 8x8 set equality {ok8} (canonical serialization)")


def test_criterion_3_figure_fidelity():
    latin_ok = np.array_equal(construct_latin_square(4).entries, LATIN_SQUARE_16)
    signed_ok = any(np.array_equal(H.signed_entries(), SIGNED_SQUARE_8)
                    for H in survivors(3))
    quaternion = cayley_dickson_table(2)
    quaternion_ok = np.array_equal(quaternion.signs * quaternion.indices,
                                   QUATERNION_TABLE)
    report(3, latin_ok and signed_ok and quaternion_ok,
           f"16x16 square {latin_ok}, signed 8x8 among survivors {signed_ok}, "
           f"quaternion table {quaternion_ok}")


def test_criterion_4_zero_divisor_equivalence():
    # The zero-divisor scan and is_latin_hadamard share the AB-BA quad
    # kernel, so the symbolic Gram oracle is the independent side.
    checked = 0
    equivalent = oracle_agrees = True
    for w in (2, 3, 4):
        square = construct_latin_square(w)
        for H in enumerate_colorings(square):
            has_divisor = next(
                find_zero_divisors(table_from_signed_square(H)), None) is not None
            valid = is_latin_hadamard(H)
            if has_divisor == valid:
                equivalent = False
            if valid != gram_is_latin_hadamard(H):
                oracle_agrees = False
            checked += 1
    octonions_clean = next(find_zero_divisors(cayley_dickson_table(3)), None) is None
    sedenions_dirty = next(find_zero_divisors(cayley_dickson_table(4)), None) is not None
    ok = (equivalent and oracle_agrees and checked == 2066
          and octonions_clean and sedenions_dirty)
    report(4, ok, f"equivalence over {checked} candidates {equivalent}, "
                  f"symbolic Gram oracle agrees {oracle_agrees}, "
                  f"octonions clean {octonions_clean}, sedenions have divisors {sedenions_dirty}")


def test_criterion_5_radon_values():
    values_ok = radon(16) == 9 and radon(32) == 10 and radon(64) == 12
    fixed_ok = [n for n in range(1, 65) if radon(n) == n] == [1, 2, 4, 8]
    design = builtin_design_16()
    bound_ok = design.num_vars == 9 and design.num_vars <= radon(16)
    report(5, values_ok and fixed_ok and bound_ok,
           f"rho(16,32,64)=({radon(16)},{radon(32)},{radon(64)}), "
           f"fixed points 1,2,4,8 {fixed_ok}, design uses {design.num_vars} <= rho(16)")


def test_criterion_6_design_identity():
    design = builtin_design_16()
    kernel_ok = verify_design(design)
    oracle_ok = monomial_identity_holds(design.entries, design.type)
    report(6, kernel_ok and oracle_ok,
           f"A A' = (x1^2 + x9^2 + 2(x2^2+..+x8^2)) I holds symbolically: "
           f"quad kernel {kernel_ok}, monomial oracle {oracle_ok}")


def test_criterion_7_partition_identity():
    rng = np.random.default_rng(MASTER_SEED)
    bases = {
        2: color(construct_latin_square(1), ()),
        4: color(construct_latin_square(2), (1,)),
        8: canonical_signed_square_8(),
    }
    worst = 0.0
    checked = 0
    for k, H in bases.items():
        for _ in range(1000):
            p = ProbabilityVector.proportional_to(rng.uniform(0.2, 2.0, size=k))
            m = CellCounts(rng.multinomial(int(rng.integers(50, 500)), p.p))
            result = decompose(m, p, eigenbasis_from_latin_hadamard(H, p))
            worst = max(worst, abs(result.sum_check) / max(1.0, result.x2))
            checked += 1

    design = builtin_design_16()
    for _ in range(100):
        raw = rng.uniform(0.3, 2.0, size=9)
        basis = design_to_eigenbasis(design, raw / np.dot(design.type, raw))
        m = CellCounts(rng.multinomial(int(rng.integers(100, 500)), basis.p.p))
        result = decompose(m, basis.p, basis)
        worst = max(worst, abs(result.sum_check) / max(1.0, result.x2))
        checked += 1

    p16 = ProbabilityVector.equiprobable(16)
    sylvester = eigenbasis_from_sign_matrix(sylvester_hadamard(4), p16)
    for _ in range(100):
        m = CellCounts(rng.multinomial(int(rng.integers(100, 500)), p16.p))
        result = decompose(m, p16, sylvester)
        worst = max(worst, abs(result.sum_check) / max(1.0, result.x2))
        checked += 1

    ok = worst <= 1e-10
    report(7, ok, f"X^2 = sum T_l^2 over {checked} random cases, "
                  f"worst relative defect {worst:.2e} <= 1e-10")


def test_criterion_8_covariance_theorems():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_idem = worst_kernel = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 17))
        p = ProbabilityVector.proportional_to(rng.uniform(0.1, 2.0, size=k))
        star = sigma_star(p)
        worst_idem = max(worst_idem, float(np.abs(star @ star - star).max()))
        worst_kernel = max(worst_kernel, float(np.abs(star @ p.sqrt()).max()))

    identities_ok = True
    for _ in range(100):
        p = ProbabilityVector.proportional_to(rng.uniform(0.1, 2.0, size=8)).p
        ones = np.ones(8)
        roots = np.sqrt(p)
        checks = (
            np.abs(np.diag(1 / p) @ p - ones).max() < 1e-12,
            abs(p @ np.diag(1 / p) @ p - 1.0) < 1e-12,
            np.abs(np.diag(1 / roots) @ roots - ones).max() < 1e-12,
            np.abs(np.diag(1 / roots) @ p - roots).max() < 1e-12,
            np.abs(np.diag(roots) @ ones - roots).max() < 1e-12,
        )
        identities_ok = identities_ok and all(checks)

    interlacing_ok = all(
        eigen_interlacing_check(
            ProbabilityVector.proportional_to(rng.uniform(0.1, 2.0, size=8)))
        for _ in range(1000))

    ok = worst_idem < 1e-12 and worst_kernel < 1e-12 and identities_ok and interlacing_ok
    report(8, ok, f"idempotency {worst_idem:.2e} < 1e-12, kernel {worst_kernel:.2e} < 1e-12, "
                  f"rescaling identities {identities_ok}, interlacing x1000 {interlacing_ok}")


def _power_run(null, alt, preset, matrix=None):
    cfg = PowerSimConfig(null=null, alternative=alt,
                         p=preset_probability(preset), n=POWER_N,
                         reps=POWER_REPS, alpha=0.05,
                         master_seed=MASTER_SEED, matrix=matrix)
    return simulate_power(cfg, threads=4).as_dict()


def test_criterion_9_power_reproduction():
    normal = DistributionSpec("normal", (0, 1))
    gamma = DistributionSpec("gamma", (5, 0.2))
    # The published gamma rows (and the closed-form T6/T8 components)
    # come from the alternate basis; the normal/t rows come from the
    # canonical one.  Each block is reproduced with its own basis.
    scenarios = [
        ("N(0,1.3)/(a)", normal, DistributionSpec("normal", (0, 1.3)), "a",
         None, {"X2": 0.859, "T6": 0.850, "T8": 0.056}),
        ("N(0.4,1)/(a)", normal, DistributionSpec("normal", (0.4, 1)), "a",
         None, {"T8": 0.994, "T3": 0.118}),
        ("t(1)/(b)", normal, DistributionSpec("t", (1,)), "b",
         None, {"T5": 1.000}),
        ("gamma(5,1/5)/(b)", matched_normal_null(gamma), gamma, "b",
         alternate_signed_square_8(), {"T3": 0.561, "T4": 0.548}),
        ("N(0,1.3)/(c)", normal, DistributionSpec("normal", (0, 1.3)), "c",
         None, {"T8": 0.405}),
    ]
    failures = []
    details = []
    for name, null, alt, preset, matrix, cells in scenarios:
        rates = _power_run(null, alt, preset, matrix)
        for stat, target in cells.items():
            got = rates[stat]
            details.append(f"{name} {stat}={got:.3f} (target {target})")
            if abs(got - target) > POWER_TOL:
                failures.append(details[-1])

    calibration = _power_run(normal, normal, "a")
    low, high = CALIBRATION_BAND
    for stat, rate in calibration.items():
        details.append(f"null {stat}={rate:.3f}")
        if not low <= rate <= high:
            failures.append(f"null calibration {stat}={rate:.3f}")

    ok = not failures
    summary = "; ".join(details) if ok else "; ".join(failures)
    report(9, ok, f"reps={POWER_REPS}, n={POWER_N}, tol +/-{POWER_TOL}: {summary}")


def test_criterion_10_threaded_determinism(tmp_path):
    outputs = []
    for threads in ("1", "4"):
        path = tmp_path / f"power_t{threads}.csv"
        code = cli_run(["power", "--alt", "normal:0,1.3", "--preset", "a",
                        "--n", str(POWER_N), "--reps", str(POWER_REPS),
                        "--seed", str(MASTER_SEED), "--threads", threads,
                        "--format", "csv", "--out", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(10, ok, f"csv byte-identical across --threads 1 vs 4 "
                   f"({len(outputs[0])} bytes)")
