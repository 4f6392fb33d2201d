"""Calibration error and Spearman against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from memmeter.metrics import MIN_RANK_VALUES, midranks, rms_calibration_error, spearman
from memmeter.rng import make_rng


def calibration(predictions):
    """rms_calibration_error over (image_id, confidence, correct) triples."""
    ids = [image_id for image_id, _, _ in predictions]
    confidence = np.array([conf for _, conf, _ in predictions])
    correct = np.array([1.0 if ok else 0.0 for _, _, ok in predictions])
    return rms_calibration_error(confidence, correct, ids)


def calibrated_bins(confidence, bin_size, correct_per_bin):
    """bin_size**2 predictions at one confidence, so the default binning makes
    bin_size bins of bin_size ids, each with correct_per_bin correct calls."""
    return [
        (f"p{k:03d}", confidence, k % bin_size < correct_per_bin) for k in range(bin_size * bin_size)
    ]


# --- calibration ---------------------------------------------------------------

def oracle_calibration(predictions):
    """Naive two-pass oracle materializing every bin explicitly."""
    ordered = sorted(predictions, key=lambda p: (p[1], p[0]))
    n = len(ordered)
    b = min(math.ceil(math.sqrt(n)), n)
    sizes = []
    base, rem = divmod(n, b)
    for k in range(b):
        sizes.append(base + 1 if k < rem else base)
    bins = []
    cursor = 0
    for size in sizes:
        bins.append(ordered[cursor : cursor + size])
        cursor += size
    total = 0.0
    for members in bins:
        confs = [conf for _, conf, _ in members]
        accs = [1.0 if ok else 0.0 for _, _, ok in members]
        gap = sum(confs) / len(confs) - sum(accs) / len(accs)
        total += (len(members) / n) * gap * gap
    return math.sqrt(total)


def random_predictions(rng, prefix, n):
    return [
        (f"{prefix}_{k}", float(rng.uniform(0.5, 1.0)), bool(rng.random() < 0.7)) for k in range(n)
    ]


def test_perfect_confidence_and_accuracy_is_zero():
    assert calibration([(f"i{k}", 1.0, True) for k in range(8)]) == 0.0


def test_half_correct_bins_give_half():
    # 4 ids make 2 bins of 2; correct and wrong alternate, so each bin is half right
    predictions = [(f"i{k}", 1.0, k % 2 == 0) for k in range(4)]
    assert calibration(predictions) == pytest.approx(0.5)


def test_matches_naive_oracle_on_random_sets():
    rng = make_rng("calibration-oracle")
    for trial in range(300):
        predictions = random_predictions(rng, f"r{trial}", int(rng.integers(1, 60)))
        assert calibration(predictions) == pytest.approx(oracle_calibration(predictions), abs=1e-12)


def test_perfectly_calibrated_bins_give_zero():
    # each bin's mean confidence equals its empirical accuracy
    assert calibration(calibrated_bins(0.8, 5, 4)) < 1e-12  # 5 bins at 0.8, 4/5 correct in each
    assert calibration(calibrated_bins(0.5, 2, 1)) < 1e-12  # 2 bins at 0.5, alternating


def test_error_bounded_and_order_invariant():
    rng = make_rng("calibration-permute")
    predictions = [
        (f"i{k}", float(rng.uniform(0.5, 1.0)), bool(rng.random() < 0.5)) for k in range(40)
    ]
    baseline = calibration(predictions)
    assert 0.0 <= baseline <= 1.0
    for _ in range(10):
        shuffled = [predictions[i] for i in rng.permutation(len(predictions))]
        assert calibration(shuffled) == baseline


# --- spearman ----------------------------------------------------------------------

def oracle_midranks(values):
    """O(n^2) counting oracle: rank = #less + (#equal + 1) / 2."""
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return np.array(out)


def oracle_spearman(xs, ys):
    rx = oracle_midranks(list(xs))
    ry = oracle_midranks(list(ys))
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sxx = float((dx * dx).sum())
    syy = float((dy * dy).sum())
    if sxx == 0.0 or syy == 0.0:
        return None
    return float((dx * dy).sum() / math.sqrt(sxx * syy))


def test_monotone_agreement_and_reversal():
    xs = [1.0, 2.0, 5.0, 9.0]
    assert spearman(xs, [10.0, 20.0, 21.0, 30.0]) == 1.0
    assert spearman(xs, [4.0, 3.0, 2.0, 1.0]) == -1.0


def test_tied_example_matches_oracle():
    xs, ys = [1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0]
    assert spearman(xs, ys) == oracle_spearman(xs, ys)


def test_constant_input_returns_none():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None


def test_length_validation():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])
    # Fewer than three values: the rank correlation is undefined, as for a constant side.
    for length in range(MIN_RANK_VALUES):
        assert spearman([1.0, 2.0][:length], [2.0, 1.0][:length]) is None
    assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_exhaustive_small_integer_vectors_match_oracle_exactly():
    # lengths 3 and 4: both sides exhaustive over {0,1,2}
    for length in (3, 4):
        for xs in itertools.product((0, 1, 2), repeat=length):
            for ys in itertools.product((0, 1, 2), repeat=length):
                assert spearman(xs, ys) == oracle_spearman(xs, ys)


def test_exhaustive_longer_vectors_with_random_partner():
    # lengths 5..8: exhaustive xs over {0,1,2}, seeded random partner
    rng = make_rng("spearman-partner")
    for length in (5, 6, 7, 8):
        for xs in itertools.product((0, 1, 2), repeat=length):
            ys = tuple(int(v) for v in rng.integers(0, 3, size=length))
            assert spearman(xs, ys) == oracle_spearman(xs, ys)


def test_random_real_vectors_match_oracle():
    rng = make_rng("spearman-reals")
    for _ in range(10_000):
        n = int(rng.integers(3, 40))
        xs = rng.normal(size=n)
        ys = rng.normal(size=n)
        ours = spearman(xs, ys)
        oracle = oracle_spearman(xs, ys)
        assert ours == pytest.approx(oracle, abs=1e-12)


def test_monotone_transform_invariance_is_bitwise_on_ranks():
    rng = make_rng("spearman-monotone")
    for _ in range(200):
        xs = rng.integers(0, 10, size=12).astype(float)
        for transform in (lambda v: 2.0 * v + 1.0, np.exp, lambda v: v * 0.5 - 3.0):
            assert np.array_equal(midranks(xs), midranks(transform(xs)))
    ys = rng.normal(size=12)
    base = spearman(rng.integers(0, 10, size=12).astype(float), ys)
    assert base is None or -1.0 <= base <= 1.0


def loop_midranks(values):
    """Sort-and-scan oracle: walk the stable sort order and give each run of equal values its mean position."""
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(len(a))
    i = 0
    while i < len(a):
        j = i
        while j + 1 < len(a) and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_midranks_match_the_sort_and_scan_loop_bitwise():
    # Ties, -0.0 beside 0.0, infinities and several NaNs, which equal nothing and rank last in input order.
    rng = make_rng("midranks-loop")
    specials = np.array([0.0, -0.0, 1.0, 2.5, np.inf, -np.inf, np.nan])
    for trial in range(3000):
        n = int(rng.integers(0, 40))
        xs = (rng.normal(size=n), rng.integers(0, 5, size=n).astype(float), rng.choice(specials, size=n))[trial % 3]
        assert midranks(xs).tobytes() == loop_midranks(xs).tobytes()
