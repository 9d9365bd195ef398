"""Benchmark of singlat: four seeded many-op workloads and a traced
per-layer run.  Entry point: perfbench/run.py; see perfbench/README.md."""
