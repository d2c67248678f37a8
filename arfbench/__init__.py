"""Benchmark harness of arfcurves; run.py is the entry point."""
