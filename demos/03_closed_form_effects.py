"""Direct and total causal effects under the linear model, two ways.

A feature's direct effect on the outcome is its stored edge coefficient;
its total effect sums the weight products over every directed path into the
outcome.  The fast implementation reads the resolvent (I - B)^{-1}; the
explicit path sum is the slow cross-check.

The classic confounding story: a campaign (C) drives both referrals (R)
and signups (S).  Referrals look predictive of signups, but most of their
association is the campaign acting through both.
"""

import numpy as np

from nscausal import (WeightedDag, direct_effect, effect_rows, total_effect,
                      total_effect_by_paths)

labels = ("campaign", "referrals", "signups")
w = np.zeros((3, 3))
w[0, 1] = 0.9   # campaign -> referrals
w[0, 2] = 0.4   # campaign -> signups
w[1, 2] = 0.3   # referrals -> signups
g = WeightedDag(w, labels, 2)

print("== Effects on signups ==")
for node, label in ((0, "campaign"), (1, "referrals")):
    de = direct_effect(g, node)
    te = total_effect(g, node)
    brute = total_effect_by_paths(g, node)
    print(f"{label:10s} direct={de:.3f} total={te:.3f} "
          f"(path enumeration gives {brute:.3f})")

print("\nThe campaign's total effect (0.4 + 0.9*0.3 = 0.67) dwarfs its "
      "direct effect;\nreferrals contribute only their own 0.3.")

print("\n== Batched report ==")
for row in effect_rows(g):
    print(f"{row['label']:10s} direct={row['direct_effect']:+.3f} "
          f"total={row['total_effect']:+.3f}")

print("\n== Total effects stay linear in each weight ==")
for bump in (0.0, 0.1, 0.2):
    w2 = w.copy()
    w2[1, 2] += bump
    te = total_effect(WeightedDag(w2, labels, 2), 0)
    print(f"campaign total effect with referrals->signups at "
          f"{w2[1, 2]:.1f}: {te:.3f}")
