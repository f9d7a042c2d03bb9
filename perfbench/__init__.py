"""End-to-end and per-layer benchmark of the verification engine.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  See
``perfbench/NOTES.md`` for the workloads, metrics and how to read the
traced output.
"""
