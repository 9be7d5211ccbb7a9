"""Reference implementations that property tests and benchmarks compare
the optimized library paths against."""
