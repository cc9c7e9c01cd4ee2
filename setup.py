"""Setuptools shim so `pip install -e .` works without network access.

The environment has no `wheel` package, so the modern PEP 517/660 editable
path (which builds a wheel) is unavailable; this shim lets pip fall back to
the legacy `setup.py develop` editable install.  There is no
pyproject.toml and the shim declares no metadata.  Nothing needs
installing to run the code: `PYTHONPATH=src` from the repository root
is enough.
"""

from setuptools import setup

setup()
