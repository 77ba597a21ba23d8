"""The artifact ledger: this repository's benchmark.

Four workloads, each the wall-clock path to one *paper artifact* (a
Figure-3 load ladder, a 32-seed replication, a campaign served from the
result store, a mix of points on the paper's 16x16 network), measured
end to end from outside the program and split by layer in a separate
traced run.  See ``README.md`` beside this file for the tables;
``BENCHMARK.json`` at the repository root is the machine-readable
contract.

Nothing here is imported by ``src/repro``; the package only calls the
program's public functions.
"""
