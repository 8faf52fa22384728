"""Packaging for the flexible-server-allocation reproduction.

``pip install -e .`` makes ``import repro`` work without ``PYTHONPATH=src``
and installs the ``repro-experiments`` console script (the same entry point
as ``python -m repro.experiments``).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent


def _version() -> str:
    """Read ``repro.__version__`` without importing the package."""
    text = (_HERE / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', text, re.MULTILINE)
    if match is None:
        raise RuntimeError("could not find __version__ in src/repro/__init__.py")
    return match.group(1)


def _readme() -> str:
    path = _HERE / "README.md"
    return path.read_text(encoding="utf-8") if path.exists() else ""


setup(
    name="repro-flexible-server-allocation",
    version=_version(),
    description=(
        "Reproduction of 'On the Benefit of Virtualization: Strategies for "
        "Flexible Server Allocation' (NSDI 2011)"
    ),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        # np.bitwise_count (OPT's configuration DP) is new in numpy 2.0;
        # scipy.optimize.milp (the HiGHS backend) is new in scipy 1.9
        "numpy>=2.0",
        "scipy>=1.9",
    ],
    extras_require={
        # pytest-benchmark runs benchmarks/bench_figures.py, the paper's claims
        "test": ["pytest>=7", "pytest-cov>=4", "hypothesis>=6", "pytest-benchmark>=4"],
        # the optional pulp/CBC solver backend for the ILP/LP policy family
        # (backend="pulp" / backend="auto"); scipy's HiGHS backend works
        # without it
        "opt": ["pulp>=2.7"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.__main__:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering",
        "Topic :: System :: Distributed Computing",
    ],
)
