"""The GOFMM ledger: one end-to-end + per-layer benchmark (see README.md, run.py)."""
