"""The performance ledger: five full-stack workloads, end-to-end and
per-layer metrics that add up.

``python -m ledger`` (from the repo root) runs every workload in a fresh
child interpreter and prints each metric by name and unit;
``python -m ledger --workload W --seed N --seconds S --trace 0|1`` is one
such child and is what ``BENCHMARK.json`` names. See ``ledger/README.md``.
"""

#: a child prints the detail behind its result on the line before the
#: driver's JSON object, behind this prefix
DETAIL_PREFIX = "# detail "
