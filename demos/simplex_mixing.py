"""The simplex variant and why it mixes its anchors.

KL divergences blow up near the simplex boundary. The simplex variant
blends each anchor with the uniform distribution before stepping,
keeping every coordinate at or above nu/d, at a per-round cost of at
most nu log d in divergence.
"""
import numpy as np

import queueprox as qp
from queueprox import checks

cfg = qp.shipped_scenario("simplex-d10", horizon=500)
built = qp.build_scenario(cfg)
trace = qp.run(cfg.variant, built, horizon=cfg.horizon)

nu = trace.nu
d = trace.dim
print(f"d = {d}, nu = 1/T = {nu}")
print("smallest decision coordinate seen:   ",
      float(trace.decisions.min()))
print("smallest mixed-anchor coordinate:    ",
      float(trace.mixed_anchors.min()))
print("guaranteed floor nu/d:               ", nu / d)
assert np.all(trace.mixed_anchors >= nu / d)

# this run's raw anchors happen to stay interior on their own; the
# floor is what turns that from luck into a guarantee
print("smallest raw-anchor coordinate:      ",
      float(trace.anchors[: trace.horizon].min()))

# the three mixing inequalities, verified on every recorded round
rng = np.random.default_rng(0)
probes = qp.sample(built.base, rng, 20)
report = checks.check_mixing(trace.anchors[: trace.horizon], nu, d, probes)
print("\nmixing check over", report.rounds, "rounds:",
      "pass" if report.passed else "FAIL",
      f"(max residual {report.max_residual:.2e},",
      f"{report.skipped} infinite-divergence probes skipped)")

# mixing costs almost nothing in regret but keeps the updates stable
comparator = qp.hindsight_comparator(built.seq, built.block)
print("regret:", round(qp.regret(trace, comparator, built.seq), 3))
