"""Privacy-preserving federated learning with norm-based attacker weighting.

Layered bottom-up: `ring` (RNS polynomial arithmetic over NTT-friendly prime
chains), `he` (leveled approximate HE on those rings), `multikey` (pairwise
mask cancellation and group decryption across users), `aggregation` (plain and
encrypted robust weighting plus the full server round), `simulation` (the
federated task, attackers, and experiment driver), `cli` (the command line).
The package re-exports nothing: import from the submodules, e.g.
``from fhefl.aggregation import secure_aggregate_round``.
"""

__version__ = "0.1.0"
