"""The platform's benchmark: workloads, span wrappers and layer report.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
