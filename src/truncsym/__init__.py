"""truncsym: exact verification of truncated power algebra and slope bounds.

Submodules:

- ``fp_linalg``: exact linear algebra over prime fields; the one elimination.
- ``monomial_box``: capped multi-index boxes and dominance matchings.
- ``trunc_power``: truncated symmetric powers and their Koszul resolution.
- ``trunc_algebra``: the truncated polynomial algebra with derivations.
- ``filtration``: local model of the connection filtration.
- ``slopes``: exact rational slope and stability-bound arithmetic.
- ``suites``: parameterized verification suites with seeded reports.
- ``scenario``: batch slope evaluation from JSON records.
- ``jsonout``: the JSON text of both commands' output.
- ``seeded``: seeded draws equal to ``random.Random.randint``'s.
"""

__version__ = "0.1.0"
