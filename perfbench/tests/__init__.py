"""Unit tests of the benchmark's own code."""
