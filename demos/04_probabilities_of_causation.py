"""Exact probabilities of causation, their bounds, and product estimators.

On a small discrete structural model everything is enumerable: the
probability that a feature is necessary and sufficient for an outcome value
is computed exactly over joint noise assignments, then compared against the
conditional-probability lower bound, which is what survives when only
observational data is available.
"""

import numpy as np

from nscausal import (Dataset, EmpiricalDistribution, ScmDistribution,
                      WeightedDag, effect_poc_profile, empirical_cpoc,
                      empirical_mpoc, exact_pn, exact_poc, exact_ps,
                      poc_lower_bound)
from nscausal.poc import DiscreteScm, observational_joint

# z0 -> y where y = z0 OR e_y: a monotone effect with leakage
w = np.zeros((2, 2))
w[0, 1] = 1.0
scm = DiscreteScm(
    graph=WeightedDag(w, ("z0", "y"), 1),
    domains=((0, 1), (0, 1)),
    noise_domains=((0, 1), (0, 1)),
    noise_probs=((0.5, 0.5), (0.7, 0.3)),
    functions=(
        {((), 0): 0, ((), 1): 1},
        {((0,), 0): 0, ((0,), 1): 1, ((1,), 0): 1, ((1,), 1): 1},
    ))

print("== Exact counterfactual quantities ==")
print("P(necessary and sufficient):", exact_poc(scm, 0, 1, 1, "marginal"))
print("P(necessary | z=1, y=1):   ", round(exact_pn(scm, 0, 1, 1), 4))
print("P(sufficient | z=0, y=0):  ", round(exact_ps(scm, 0, 1, 1), 4))

print("\n== Lower bound from conditionals (tight here: monotone) ==")
bound = poc_lower_bound(ScmDistribution(scm), 0, 1, 1, "marginal")
print("bound:", round(bound.lower_bound, 4),
      " exact:", round(exact_poc(scm, 0, 1, 1), 4))

print("\n== Effect/causation profile for the binary treatment ==")
profile = effect_poc_profile(scm, 0, 1)
print(f"outcome-weighted POC mass (marginal) = {profile.poc_mass_m:.4f}")
print(f"conditional-mean gap               = {profile.delta_m:.4f}")
print(f"|total effect| = {profile.te_abs:.4f}, "
      f"|direct effect| = {profile.de_abs:.4f}")

print("\n== Product-form estimators on sampled data ==")
rng = np.random.default_rng(0)
joint = observational_joint(scm)
outcomes = list(joint)
probs = [joint[v] for v in outcomes]
rows = np.array([outcomes[i] for i in
                 rng.choice(len(outcomes), size=400, p=probs)], dtype=float)
data = Dataset(rows, ("z0", "y"), 1)
model = EmpiricalDistribution(data, smoothing=1.0)
m_est = empirical_mpoc(data, 0, model)
c_est = empirical_cpoc(data, 0, model)
print(f"marginal product: log={m_est.log_value:.1f} "
      f"geometric mean={m_est.geometric_mean:.4f}")
print(f"conditional product: log={c_est.log_value:.1f} "
      f"geometric mean={c_est.geometric_mean:.4f}")
print("(the raw product underflows by design; the log and the per-row "
      "geometric mean carry the signal)")
