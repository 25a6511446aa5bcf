import math
from datetime import date

import numpy as np
import pytest

from newslens.bootstrap import BootstrapResult, bootstrap_sb
from newslens.sentiment import MentionRecord


def worked_mentions():
    """Nine mentions: A +,+,+,- and B +,+,-,-,-."""
    return (
        [("A", "positive")] * 3
        + [("A", "negative")]
        + [("B", "positive")] * 2
        + [("B", "negative")] * 3
    )


class TestBootstrapSb:
    def test_point_is_one_third_exactly(self):
        res = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=200, seed=1)
        assert res.point == 1.0 / 3.0

    def test_worked_resample_value_is_reachable(self):
        # the resample [A+,A+,A+,A+,A+,B-,B-,B+,B+] has mean 5/9
        draw = [1, 1, 1, 1, 1, 1, 1, -1, -1]
        assert np.mean(draw) == pytest.approx(5.0 / 9.0)
        # and with enough resamples some draw actually hits that value
        res = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=4000, seed=3)
        means = self.replay_means(worked_mentions(), 4000, 3)
        assert any(m == pytest.approx(5.0 / 9.0) for m in means)
        assert res.ci_low <= res.point <= res.ci_high

    @staticmethod
    def replay_means(mentions, n_resamples, seed):
        """Independent re-derivation of the resample means for oracle checks."""
        value = {"positive": 1, "very_positive": 1, "neutral": 0,
                 "negative": -1, "very_negative": -1}
        vals = np.array(
            [
                value[cls] * (1 if entity == "A" else -1)
                for entity, cls in mentions
            ],
            dtype=float,
        )
        children = np.random.SeedSequence(seed).spawn(n_resamples)
        out = []
        for child in children:
            rng = np.random.default_rng(child)
            idx = rng.integers(0, vals.size, size=vals.size)
            out.append(vals[idx].mean())
        return np.asarray(out)

    def test_bit_identical_for_seed(self):
        a = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=500, seed=9)
        b = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=500, seed=9)
        assert a == b

    def test_point_independent_of_resampling(self):
        a = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=50, seed=1)
        b = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=800, seed=77)
        assert a.point == b.point

    def test_degenerate_all_positive(self):
        mentions = [("A", "positive")] * 20
        res = bootstrap_sb(mentions, "A", "B", n_resamples=1000, seed=5)
        assert res.point == 1.0
        assert res.ci_low == res.ci_high == 1.0
        assert res.p_sign == 0.0

    def test_p_sign_counts_non_positive_resamples(self):
        mentions = worked_mentions()
        res = bootstrap_sb(mentions, "A", "B", n_resamples=2000, seed=11)
        means = self.replay_means(mentions, 2000, 11)
        assert res.p_sign == np.mean(means <= 0.0)

    def test_ci_matches_percentiles_of_replayed_means(self):
        mentions = worked_mentions()
        res = bootstrap_sb(mentions, "A", "B", n_resamples=1500, seed=13, level=0.9)
        means = self.replay_means(mentions, 1500, 13)
        lo, hi = np.percentile(means, [5.0, 95.0])
        assert res.ci_low == float(lo)
        assert res.ci_high == float(hi)

    def test_accepts_mention_records(self):
        records = [
            MentionRecord("a1", date(2021, 3, 1), "A", "s", "positive"),
            MentionRecord("a1", date(2021, 3, 1), "B", "s", "negative"),
        ]
        res = bootstrap_sb(records, "A", "B", n_resamples=100, seed=0)
        assert res.point == 1.0

    def test_metadata_recorded(self):
        res = bootstrap_sb(worked_mentions(), "A", "B", n_resamples=150, seed=21, level=0.9)
        assert res.n_mentions == 9
        assert res.n_resamples == 150
        assert res.level == 0.9
        assert res.seed == 21
        assert res.generator == "numpy-pcg64"

    def test_validation(self):
        with pytest.raises(ValueError, match="no mentions"):
            bootstrap_sb([], "A", "B")
        with pytest.raises(ValueError, match="n_resamples"):
            bootstrap_sb(worked_mentions(), "A", "B", n_resamples=0)
        with pytest.raises(ValueError, match="level"):
            bootstrap_sb(worked_mentions(), "A", "B", level=1.0)

    def test_seed_chunking_independence(self):
        # means drawn one-per-child must match a single batched derivation,
        # so worker scheduling cannot change the answer
        mentions = worked_mentions()
        res = bootstrap_sb(mentions, "A", "B", n_resamples=64, seed=2)
        means = self.replay_means(mentions, 64, 2)
        lo, hi = np.percentile(means, [2.5, 97.5])
        assert res.ci_low == float(lo) and res.ci_high == float(hi)


class TestBootstrapStderr:
    def test_degenerate_is_zero(self):
        res = bootstrap_sb([("A", "positive")] * 15, "A", "B", n_resamples=400, seed=3)
        assert res.stderr == 0.0

    def test_matches_replayed_std(self):
        mentions = worked_mentions()
        res = bootstrap_sb(mentions, "A", "B", n_resamples=800, seed=17)
        means = TestBootstrapSb.replay_means(mentions, 800, 17)
        assert res.stderr == float(np.std(means, ddof=1))

    def test_close_to_analytic_value(self):
        # mentions valued +1 with prob .45, -1 with .35, 0 with .2:
        # stderr of the mean is sqrt((E[v^2] - E[v]^2) / n)
        rng = np.random.default_rng(19)
        vals = rng.choice([1, -1, 0], size=1000, p=[0.45, 0.35, 0.2])
        mentions = [
            ("A", "positive") if v == 1 else ("A", "negative") if v == -1 else ("A", "neutral")
            for v in vals
        ]
        res = bootstrap_sb(mentions, "A", "B", n_resamples=3000, seed=23)
        var = vals.var()  # plug-in population variance of the sample
        analytic = math.sqrt(var / 1000)
        assert res.stderr == pytest.approx(analytic, rel=0.10)
