"""Tests for the analysis toolkit (fits, stats, information, report)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fitting import (
    best_exponent_model,
    doubling_ratio,
    fit_power_law,
    fit_power_law_deloged,
    relative_residuals,
)
from repro.analysis.information import (
    conditional_entropy,
    entropy,
    joint_entropy,
    mutual_information,
    support_size,
    uniform_entropy,
)
from repro.analysis.report import format_value, render_table
from repro.analysis.stats import (
    bootstrap_ci,
    geometric_mean,
    median,
    summarize,
)


class TestPowerLaw:
    def test_exact_power_law(self):
        ns = [10, 20, 40, 80, 160]
        ys = [3 * n**1.5 for n in ns]
        fit = fit_power_law(ns, ys)
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)
        assert fit.constant == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [2, 4, 8])
        assert fit.predict(8) == pytest.approx(16.0)

    def test_noisy_data_good_r2(self):
        import random

        rng = random.Random(1)
        ns = [2**i for i in range(4, 12)]
        ys = [5 * n**2 * rng.uniform(0.9, 1.1) for n in ns]
        fit = fit_power_law(ns, ys)
        assert abs(fit.exponent - 2.0) < 0.1
        assert fit.r_squared > 0.99

    def test_deloged_fit_strips_log(self):
        ns = [2**i for i in range(5, 14)]
        ys = [n * math.log(n) for n in ns]
        raw = fit_power_law(ns, ys)
        deloged = fit_power_law_deloged(ns, ys, log_power=1.0)
        assert deloged.exponent == pytest.approx(1.0, abs=1e-6)
        assert raw.exponent > deloged.exponent

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 2])
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 2])

    def test_residuals(self):
        res = relative_residuals([1, 2], [10, 22], lambda n: 10 * n)
        assert res[0] == pytest.approx(0.0)
        assert res[1] == pytest.approx(0.1)

    def test_best_exponent_model(self):
        ns = [2**i for i in range(5, 12)]
        ys = [7 * n ** (4 / 3) for n in ns]
        best, errs = best_exponent_model(ns, ys, [1.0, 4 / 3, 1.5, 2.0])
        assert best == pytest.approx(4 / 3)
        assert errs[4 / 3] < errs[1.0]

    def test_doubling_ratio(self):
        assert doubling_ratio([2, 4, 8], [4, 16, 64]) == pytest.approx(
            [2.0, 2.0]
        )

    def test_equal_sizes_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([8, 8, 8], [1, 2, 3])


def _numpy_fit_power_law(np, ns, ys):
    """Reference: the same fit through ``np.polyfit``."""
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    a, b = np.polyfit(lx, ly, 1)
    pred = a * lx + b
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(a), float(math.exp(b)), r2


def _numpy_best_exponent_model(np, ns, ys, candidates, log_power):
    """Reference: the same model choice through numpy arrays."""
    lx = np.asarray([math.log(n) for n in ns], dtype=float)
    ly = np.asarray(
        [
            math.log(y / (math.log(n) ** log_power if log_power else 1.0))
            for n, y in zip(ns, ys)
        ],
        dtype=float,
    )
    errors = {}
    for a in candidates:
        resid = ly - a * lx
        b = float(np.mean(resid))
        errors[a] = float(np.sqrt(np.mean((resid - b) ** 2)))
    return min(errors, key=errors.get), errors


def _doubling_grids(count, seed):
    """Noisy power laws with polylog factors on doubling-size grids."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        first = rng.randint(1, 8)
        ns = [2**k for k in range(first, first + rng.randint(2, 10))]
        a, c = rng.uniform(0.5, 2.5), rng.uniform(0.1, 50.0)
        log_power = rng.choice([0.0, 0.5, 1.0])
        ys = [
            c * n**a * math.log(n) ** log_power * rng.lognormvariate(0, 0.2)
            for n in ns
        ]
        yield ns, ys, log_power


class TestFitsAgainstNumpy:
    """The pure-Python fits against the numpy reference, with
    tolerances fixed before comparing."""

    def test_fit_power_law(self):
        np = pytest.importorskip("numpy")
        for ns, ys, _ in _doubling_grids(1000, seed=3):
            a, c, r2 = _numpy_fit_power_law(np, ns, ys)
            fit = fit_power_law(ns, ys)
            assert fit.exponent == pytest.approx(a, rel=1e-9)
            assert fit.constant == pytest.approx(c, rel=1e-9)
            assert fit.r_squared == pytest.approx(r2, rel=0, abs=1e-9)

    def test_best_exponent_model(self):
        np = pytest.importorskip("numpy")
        candidates = [1.0, 4 / 3, 1.5, 2.0, 2.5]
        for ns, ys, log_power in _doubling_grids(1000, seed=4):
            want_best, want = _numpy_best_exponent_model(
                np, ns, ys, candidates, log_power
            )
            best, errors = best_exponent_model(
                ns, ys, candidates, log_power=log_power
            )
            assert best == want_best
            for a in candidates:
                assert errors[a] == pytest.approx(want[a], rel=0, abs=1e-9)


class TestStats:
    def test_summarize(self):
        s = summarize([1, 2, 3, 4])
        assert s.mean == 2.5
        assert s.minimum == 1 and s.maximum == 4
        assert s.count == 4
        assert s.std == pytest.approx(math.sqrt(1.25))

    def test_summarize_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_bootstrap_contains_mean(self):
        data = [10.0] * 5 + [20.0] * 5
        lo, hi = bootstrap_ci(data, seed=1)
        assert lo <= 15.0 <= hi
        assert lo >= 10.0 and hi <= 20.0

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geometric_mean([1, -1])

    def test_median(self):
        assert median([3, 1, 2]) == 2
        assert median([4, 1, 2, 3]) == 2.5
        with pytest.raises(ValueError):
            median([])


class TestInformation:
    def test_entropy_uniform(self):
        samples = list(range(8)) * 100
        assert entropy(samples) == pytest.approx(3.0)

    def test_entropy_constant_is_zero(self):
        assert entropy([7] * 50) == 0.0

    def test_entropy_empty(self):
        with pytest.raises(ValueError):
            entropy([])

    def test_joint_and_conditional(self):
        # Y determines X completely: H[X|Y] = 0, I = H[X].
        pairs = [(x, x) for x in range(4)] * 50
        assert conditional_entropy(pairs) == pytest.approx(0.0, abs=1e-9)
        assert mutual_information(pairs) == pytest.approx(2.0)

    def test_independent_variables(self):
        pairs = [(x, y) for x in range(4) for y in range(4)] * 10
        assert mutual_information(pairs) == pytest.approx(0.0, abs=1e-9)
        assert joint_entropy(pairs) == pytest.approx(4.0)

    def test_partial_information(self):
        # Y = X mod 2 reveals exactly 1 bit of a uniform 2-bit X.
        pairs = [(x, x % 2) for x in range(4)] * 25
        assert mutual_information(pairs) == pytest.approx(1.0)

    def test_support_and_uniform(self):
        assert support_size([1, 1, 2, 5]) == 3
        assert uniform_entropy(8) == 3.0
        with pytest.raises(ValueError):
            uniform_entropy(0)

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_entropy_bounds(self, samples):
        h = entropy(samples)
        assert 0.0 <= h <= math.log2(6) + 1e-9

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_mi_bounds(self, pairs):
        mi = mutual_information(pairs)
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        assert -1e-9 <= mi <= min(entropy(xs), entropy(ys)) + 1e-9


class TestReport:
    def test_render_basic(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        text = render_table(rows, title="T")
        assert "T" in text
        assert "a" in text and "b" in text
        assert "10" in text

    def test_render_empty(self):
        assert "(no data)" in render_table([])

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = render_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(123456.0) == "1.23e+05"
        assert format_value(1.5) == "1.50"
        assert format_value("x") == "x"
