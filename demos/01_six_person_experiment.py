"""A six-person experiment, worked end to end.

Three of six people are randomized into intervention.  Two of the three take
up in intervention and one of three takes up in control, so the estimated
average effect is 1/3.  Within the family of joint type-count vectors that
match those takeup rates, the likelihood is not flat: it counts, for each
candidate, how many of the 20 possible randomized assignments would have
produced exactly this data.
"""
from fractions import Fraction
from math import comb

from defiers import (
    CompletelyRandomized,
    ExperimentData,
    estimate_marginals,
    frechet_set,
    mle,
    monotonicity_mle,
    oracle_assignment_count,
    theta_at_defiers,
)

x = ExperimentData(i1=2, i0=1, c1=1, c0=2)
design = CompletelyRandomized(m=3, n=6)
total = comb(6, 3)

print(f"data: {x.counts()}  (takeup 2/3 in intervention, 1/3 in control)")
print(f"estimated average effect: {x.average_effect():+.3f}\n")

marginals = estimate_marginals(x, design)
family = frechet_set(marginals)
print(
    f"estimated marginal takeup counts: {marginals.m1} of 6 under intervention, "
    f"{marginals.mc} of 6 under control"
)
print(
    f"defier counts consistent with those marginals: "
    f"{family.defier_lo}...{family.defier_hi}\n"
)

print("candidate (at, co, de, nt)   assignments yielding the data   likelihood")
for d in family.defier_range():
    theta = theta_at_defiers(family, d)
    count = oracle_assignment_count(theta, x)
    frac = Fraction(count, total)
    print(
        f"  {str(theta.counts()):18s}   {count:2d} of {total}"
        f"{'':20s}{frac} = {float(frac):.0%}"
    )

best = mle(x, design)
print(f"\nmaximum likelihood estimate: {best.estimate.counts()}")
print(
    "  four compliers (+1 each) and two defiers (-1 each) recover the "
    f"estimated effect: (4 - 2)/6 = {best.estimate.average_effect():+.3f}"
)

mono = monotonicity_mle(x, design)
print(
    f"\nbest no-defier/no-complier candidate: {mono.estimate.counts()} "
    f"({oracle_assignment_count(mono.estimate, x)} of {total} assignments)"
)
print(
    "  ruling out defiers by assumption would conceal the higher-likelihood "
    "answer above."
)
