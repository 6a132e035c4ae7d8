"""End-to-end and per-layer benchmark of the NiLiCon simulator.

``python3 nlbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in this (fresh) process and prints the
result as the last stdout line.  See ``nlbench/README.md``.
"""
