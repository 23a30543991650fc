"""Benchmark for aoisched: workloads, output checks and layer tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
