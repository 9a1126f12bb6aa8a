"""Desk-scale simulator of federated domain generalization.

Training couples per-client adversarial novel-domain generation (a
generator perturbs inputs against a teacher/student pair) with
sharpness-aware hierarchical aggregation on the server.  Everything is
plain numpy: the three training objectives backpropagate through
closed-form MLP passes (nets.mlp_forward / nets.mlp_backward), and all
randomness is seeded.
"""

__version__ = "0.1.0"
