"""Repeatable end-to-end benchmark with per-layer attribution (see run.py)."""
