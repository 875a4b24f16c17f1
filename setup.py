"""Setup script for an in-place install of the ``repro`` package.

``python setup.py develop`` installs the package from ``src/`` without
building a wheel, so it works offline and without the ``wheel`` package,
which ``pip install -e .`` needs.  Without an install, run from the source
tree with ``PYTHONPATH=src``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
)
