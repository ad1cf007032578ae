"""Numerical certificates, with negative controls.

Every inequality used to justify the solver is re-checked numerically
on real traces: the queue update's properties, the per-round
drift-plus-penalty bound, the prox pushback property, and the descent
inequality on the shipped losses. To show the checks have teeth, each
of the last two is also run with a deliberately broken input.
"""
import dataclasses

import queueprox as qp
from queueprox import checks

cfg = qp.shipped_scenario("golden-d2", horizon=800)
built = qp.build_scenario(cfg)
trace = qp.run(cfg.variant, built, horizon=cfg.horizon)

print(checks.check_queue_lemma(trace))
print(checks.check_dpp_over_trace(trace, built.seq, built.block, seed=1))
print(checks.check_pushback(built.base, n_instances=50, seed=1))
print(checks.check_descent_lemma(
    lambda x: float(built.seq.value(5, x)),
    lambda x: built.seq.grad(5, x),
    built.seq.grad_lipschitz, built.base, seed=1))

# negative control 1: halve the recorded prox weights and the per-round
# bound must fail in round 17, since alpha was chosen to be just large
# enough
halved = dataclasses.replace(trace, alphas=trace.alphas / 2)
control = checks.check_dpp_over_trace(halved, built.seq, built.block,
                                      rounds=[17], n_z=50, seed=2)
print("\nhalved prox weight:", control)
assert not control.passed

# negative control 2: understate the smoothness constant and the
# descent inequality must fail
bad = checks.check_descent_lemma(
    lambda x: float(x @ x), lambda x: 2.0 * x, 0.5, built.base, seed=2)
print("understated smoothness:", bad)
assert not bad.passed
