"""Reference implementations the test suite compares ``src/`` against."""
