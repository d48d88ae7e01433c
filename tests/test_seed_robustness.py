"""Seed robustness: the headline shapes hold across random seeds.

The reproduction's claims are about *shapes*, so they must not hinge on a
lucky seed. A tiny-scale sweep across seeds checks the two headline
orderings.
"""

import pytest

from repro.experiments import fig4b, fig5a

#: seeds of the Figure 5-a sweep; 30 tiny-scale runs take a few seconds
FIG5A_SEEDS = range(1, 31)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rpt_beats_indep_across_seeds(seed):
    result = fig4b.run(
        dataset="temperature",
        scale=0.05,
        seed=seed,
        epsilon_ratios=(0.15, 0.25),
    )
    assert result.improvement_factor > 1.1
    for indep, rpt in zip(result.samples_indep, result.samples_rpt):
        assert rpt <= indep * 1.05


@pytest.mark.parametrize("seed", [1, 2])
def test_digest_beats_naive_across_seeds(seed):
    result = fig5a.run(dataset="temperature", scale=0.05, seed=seed)
    assert result.digest_vs_naive > 1.5
    assert result.totals["PRED3+RPT"] <= min(result.totals.values()) * 1.05


def test_digest_ordering_over_seeds():
    """Figure 5-a's ordering as a statistic over 30 seeds, not one draw.

    The per-seed "Digest is within 5% of the cheapest arm" check above
    holds on seeds 1 and 2 but fails on a few seeds of 1-30 (17 and 27
    today), so on its own it flips whenever the RNG stream moves. Over
    seeds 1-30, PRED3+RPT sums to 0.83 of PRED3+INDEP and beats it on
    27 seeds. Four statements:

    - Digest's summed cost is strictly the smallest of the four arms;
    - it is at most 0.90 of PRED3+INDEP's summed cost (RPT's saving
      under PRED3 is real, not a tie);
    - it beats PRED3+INDEP on at least 22 of 30 seeds: under "RPT is no
      better" a win is a fair coin, and P(Bin(30, 1/2) >= 22) = 0.0081;
    - Digest beats naive ALL+INDEP by more than 1.5x on every seed.
    """
    runs = [
        fig5a.run(dataset="temperature", scale=0.05, seed=seed)
        for seed in FIG5A_SEEDS
    ]
    sums = {
        arm: sum(run.totals[arm] for run in runs) for arm in runs[0].totals
    }
    digest = sums.pop("PRED3+RPT")
    assert digest < min(sums.values()), (digest, sums)
    assert digest <= 0.90 * sums["PRED3+INDEP"], (digest, sums)
    wins = sum(
        run.totals["PRED3+RPT"] < run.totals["PRED3+INDEP"] for run in runs
    )
    assert wins >= 22, wins
    assert min(run.digest_vs_naive for run in runs) > 1.5
