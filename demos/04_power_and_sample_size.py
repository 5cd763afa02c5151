"""Power analysis: how long must a sampling test run?

Under the null (everyone follows the announcement) the fit statistic is
chi-square with one fewer degrees of freedom than there are supported joint
actions. Under a fixed deviation of sensitivity delta, it is noncentral
chi-square with noncentrality l_T * delta: more rounds push the statistic's
mass above the critical value, shrinking the Type-2 probability.
"""

from advicecheck import chi2_quantile, noncentral_chi2_cdf, power_beta, sample_size

print("critical value at alpha = 0.1, 3 dof:", round(chi2_quantile(0.9, 3), 4))

print()
print("Type-2 probability vs rounds watched (delta_hat = 0.01):")
for n in (250, 500, 1000, 2100, 4000):
    beta = power_beta(alpha=0.1, delta_hat=0.01, df_total=3, sample_size=n)
    print(f"  l_T = {n:5d}  ->  beta = {beta:.5f}")

print()
print("smallest l_T for beta <= 0.0063:", sample_size(0.1, 0.0063, 0.01, 3))
print("a 4x bigger effect needs ~1/4 the rounds:", sample_size(0.1, 0.0063, 0.04, 3))

print()
print("noncentral CDF sanity: a draw with noncentrality 21 almost never")
print("falls below 6.251:", round(noncentral_chi2_cdf(6.251, 4, 21.0), 5))

