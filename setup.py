"""Packaging for the Structurally Tractable Uncertain Data reproduction.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so
``pip install -e . --no-build-isolation`` works on machines where PEP 517
editable installs are unavailable.

``numpy`` is a hard install requirement: the compiled circuit IR's batch
kernels (``repro/circuits/compiled.py``), the columnar instances, the
samplers and the wire format all run on it, with no numpy-free fallback.
"""

from setuptools import find_packages, setup

setup(
    name="repro-uncertain-data",
    version="0.3.0",
    description=(
        "Reproduction of 'Structurally Tractable Uncertain Data' "
        "(Amarilli, SIGMOD 2015 PhD Symposium)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
        "numpy",
    ],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
            "repro-worker=repro.cli:worker_main",
        ],
    },
)
