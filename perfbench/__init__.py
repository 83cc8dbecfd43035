"""Benchmark of the cyclelattice package: see perfbench/README.md."""
