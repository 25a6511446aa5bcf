import math
from datetime import date

import numpy as np
import pytest

from newslens.bootstrap import BootstrapResult, bootstrap_sb
from newslens.sentiment import MentionRecord, SentimentTally, tally_mentions


def worked_tally():
    """Nine mentions: A +,+,+,- and B +,+,-,-,-."""
    return SentimentTally("A", "B", pos_a=3, neg_a=1, pos_b=2, neg_b=3)


class TestBootstrapSb:
    def test_point_is_one_third_exactly(self):
        res = bootstrap_sb(worked_tally(), n_resamples=200, seed=1)
        assert res.point == 1.0 / 3.0

    def test_worked_resample_value_is_reachable(self):
        # the resample [A+,A+,A+,A+,A+,B-,B-,B+,B+] has mean 5/9
        draw = [1, 1, 1, 1, 1, 1, 1, -1, -1]
        assert np.mean(draw) == pytest.approx(5.0 / 9.0)
        # and with enough resamples some draw actually hits that value
        res = bootstrap_sb(worked_tally(), n_resamples=4000, seed=3)
        means = self.replay_means(worked_tally(), 4000, 3)
        assert any(m == pytest.approx(5.0 / 9.0) for m in means)
        assert res.ci_low <= res.point <= res.ci_high

    @staticmethod
    def replay_means(tally, n_resamples, seed):
        """Independent replay of the resample means for oracle checks.

        Counts the mentions valued +1 (positive A, negative B), 0
        (neutral) and -1 (negative A, positive B), draws all resample
        count vectors from one multinomial call, and takes each mean as
        (n+ - n-) / n.
        """
        t = tally
        counts = [t.pos_a + t.neg_b, t.neu_a + t.neu_b, t.neg_a + t.pos_b]
        n = sum(counts)
        p = np.array(counts) / n
        draws = np.random.default_rng(seed).multinomial(n, p, size=n_resamples)
        return (draws[:, 0] - draws[:, 2]) / n

    def test_bit_identical_for_seed(self):
        a = bootstrap_sb(worked_tally(), n_resamples=500, seed=9)
        b = bootstrap_sb(worked_tally(), n_resamples=500, seed=9)
        assert a == b

    def test_point_independent_of_resampling(self):
        a = bootstrap_sb(worked_tally(), n_resamples=50, seed=1)
        b = bootstrap_sb(worked_tally(), n_resamples=800, seed=77)
        assert a.point == b.point

    def test_degenerate_all_positive(self):
        res = bootstrap_sb(SentimentTally("A", "B", pos_a=20), n_resamples=1000, seed=5)
        assert res.point == 1.0
        assert res.ci_low == res.ci_high == 1.0
        assert res.p_sign == 0.0

    def test_p_sign_counts_non_positive_resamples(self):
        tally = worked_tally()
        res = bootstrap_sb(tally, n_resamples=2000, seed=11)
        means = self.replay_means(tally, 2000, 11)
        assert res.p_sign == np.mean(means <= 0.0)

    def test_ci_matches_percentiles_of_replayed_means(self):
        tally = worked_tally()
        res = bootstrap_sb(tally, n_resamples=1500, seed=13, level=0.9)
        means = self.replay_means(tally, 1500, 13)
        lo, hi = np.percentile(means, [5.0, 95.0])
        assert res.ci_low == float(lo)
        assert res.ci_high == float(hi)

    def test_tally_of_mention_records_matches_hand_built_tally(self):
        pairs = [
            ("A", "positive"), ("A", "very_positive"), ("A", "very_negative"),
            ("A", "neutral"), ("B", "negative"), ("B", "very_negative"),
            ("B", "very_positive"), ("B", "neutral"), ("B", "neutral"), ("A", "positive"),
        ]
        records = [MentionRecord("a1", date(2021, 3, 1), e, "s", cls) for e, cls in pairs]
        hand = SentimentTally("A", "B", pos_a=3, neg_a=1, neu_a=1, pos_b=1, neg_b=2, neu_b=2)
        res = bootstrap_sb(tally_mentions(records, "A", "B"), n_resamples=300, seed=4)
        assert res == bootstrap_sb(hand, n_resamples=300, seed=4)
        assert res.point == (3 - 1 - 1 + 2) / 10

    def test_metadata_recorded(self):
        res = bootstrap_sb(worked_tally(), n_resamples=150, seed=21, level=0.9)
        assert res.n_mentions == 9
        assert res.n_resamples == 150
        assert res.level == 0.9
        assert res.seed == 21
        assert res.generator == "numpy-pcg64"

    def test_validation(self):
        with pytest.raises(ValueError, match="no mentions"):
            bootstrap_sb(SentimentTally("A", "B"))
        for n_resamples in (0, 1):  # one resample has no standard error
            with pytest.raises(ValueError, match="n_resamples"):
                bootstrap_sb(worked_tally(), n_resamples=n_resamples)
        with pytest.raises(ValueError, match="level"):
            bootstrap_sb(worked_tally(), level=1.0)


class TestBootstrapStderr:
    def test_degenerate_is_zero(self):
        res = bootstrap_sb(SentimentTally("A", "B", pos_a=15), n_resamples=400, seed=3)
        assert res.stderr == 0.0

    def test_matches_replayed_std(self):
        tally = worked_tally()
        res = bootstrap_sb(tally, n_resamples=800, seed=17)
        means = TestBootstrapSb.replay_means(tally, 800, 17)
        assert res.stderr == float(np.std(means, ddof=1))

    def test_close_to_analytic_value(self):
        # mentions valued +1 with prob .45, -1 with .35, 0 with .2:
        # stderr of the mean is sqrt((E[v^2] - E[v]^2) / n)
        rng = np.random.default_rng(19)
        vals = rng.choice([1, -1, 0], size=1000, p=[0.45, 0.35, 0.2])
        tally = SentimentTally(
            "A", "B", pos_a=int(np.sum(vals == 1)), neg_a=int(np.sum(vals == -1)),
            neu_a=int(np.sum(vals == 0)),
        )
        res = bootstrap_sb(tally, n_resamples=3000, seed=23)
        var = vals.var()  # plug-in population variance of the sample
        analytic = math.sqrt(var / 1000)
        assert res.stderr == pytest.approx(analytic, rel=0.10)


def spawned_means(vals, n_resamples, seed):
    """Index resampling with one spawned generator per resample.

    The scheme ``bootstrap_sb`` used before its multinomial draw, kept as
    an oracle for the distribution of the resample means.
    """
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    means = np.empty(n_resamples)
    for i, child in enumerate(children):
        idx = np.random.default_rng(child).integers(0, vals.size, size=vals.size)
        means[i] = vals[idx].mean()
    return means


def tally_from_counts(n_pos, n_neu, n_neg):
    return SentimentTally("A", "B", pos_a=n_pos, neu_b=n_neu, pos_b=n_neg)


class TestAgainstIndexResampling:
    # (n+, n0, n-) over 400 mentions
    MIXES = {
        "balanced": (150, 100, 150),
        "one_sided_near_plus_one": (384, 10, 6),
        "mostly_neutral": (30, 350, 20),
    }

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_percentiles_and_stderr_agree(self, mix):
        counts = self.MIXES[mix]
        n = sum(counts)
        vals = np.repeat([1.0, 0.0, -1.0], counts)
        old = spawned_means(vals, 2000, seed=31)
        res = bootstrap_sb(tally_from_counts(*counts), n_resamples=2000, seed=31)
        # both estimate sqrt(var / n); each side's stderr has a relative
        # Monte Carlo error near 1 / sqrt(2 B) = 1.6%, and each 2.5%
        # percentile an error near 0.06 stderr
        analytic = math.sqrt(vals.var() / n)
        assert res.stderr == pytest.approx(analytic, rel=0.08)
        assert res.stderr == pytest.approx(float(np.std(old, ddof=1)), rel=0.10)
        lo, hi = np.percentile(old, [2.5, 97.5])
        assert abs(res.ci_low - lo) <= 0.4 * analytic
        assert abs(res.ci_high - hi) <= 0.4 * analytic

    @pytest.mark.parametrize("n", [1, 3, 9, 400, 24001])
    def test_count_form_is_bit_identical_to_indexed_mean(self, n):
        rng = np.random.default_rng(n)
        vals = rng.choice([1.0, 0.0, -1.0], size=n)
        for _ in range(20):
            idx = rng.integers(0, n, size=n)
            n_pos = int(np.count_nonzero(vals[idx] == 1.0))
            n_neg = int(np.count_nonzero(vals[idx] == -1.0))
            assert (n_pos - n_neg) / n == vals[idx].mean()
            assert (np.array([n_pos]) - np.array([n_neg])) / n == vals[idx].mean()
