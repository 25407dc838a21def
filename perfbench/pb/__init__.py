"""Benchmark driver internals: workloads, gates, sampler, processes."""
