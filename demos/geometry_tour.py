"""Tour of the two geometries: divergences, projections, mirror steps.

The solver is generic over a mirror-descent geometry, and the base set
decides which one: a ball or a box is euclidean, the simplex entropic.
This script walks both and prints the quantities the algorithm
manipulates each round.
"""
import numpy as np

import queueprox as qp

# the unit ball carries the euclidean pairing
ball = qp.Ball(center=np.zeros(2), radius=1.0)

x = np.array([0.5, -0.5])
y = np.array([-0.5, 0.5])
print("euclidean D(x, y) =", qp.bregman(ball, x, y))
print("projection of (3, 4) onto the ball:", qp.project(ball, np.array([3.0, 4.0])))

# a mirror step is a linearized prox: argmin <h, z> + alpha D(z, anchor)
anchor = np.zeros(2)
h = np.array([1.0, 0.0])
print("mirror step from the center against h = (1, 0):",
      qp.mirror_step(ball, anchor, h, alpha=2.0))

# the simplex carries the entropic pairing: D is the KL divergence and the
# step is a multiplicative-weights update followed by normalization
simplex = qp.Simplex(d=3)
u = np.full(3, 1 / 3)
v = np.array([0.5, 0.25, 0.25])
print("\nentropic D(v, u) =", qp.bregman(simplex, v, u))

h = np.array([1.0, 0.0, -1.0])
stepped = qp.mirror_step(simplex, u, h, alpha=1.0)
print("entropic step from uniform:", stepped, "sums to", stepped.sum())

# dual norms: l2 is self-dual, the entropic geometry pairs l1 with l-inf
g = np.array([3.0, -4.0, 1.0])
print("\n||g||_* on a ball:     ", qp.dual_norm(qp.Ball(np.zeros(3), 1.0), g))
print("||g||_* on the simplex:", qp.dual_norm(simplex, g))

# strong convexity is what makes the proximity terms usable: D(x, y)
# always dominates (rho/2) ||x - y||^2 in the base set's norm
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(200):
    a, b = qp.sample(simplex, rng, 2)
    gap = qp.bregman(simplex, a, b) - 0.5 * qp.norm(simplex, a - b) ** 2
    worst = min(worst, gap)
print("\nsmallest KL minus (1/2)||.||_1^2 gap over 200 simplex pairs:", worst)
