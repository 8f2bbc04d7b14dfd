"""Setup shim for tools that still call ``setup.py``; the metadata lives in pyproject.toml."""
from setuptools import setup

setup()
