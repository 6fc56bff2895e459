"""Setuptools entry point: the package's only build configuration.

``pip install -e .`` installs ``src/repro`` and the ``repro-service``
console script; the tests and examples also run uninstalled with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "EFT-VQA: Variational Quantum Algorithms in the era of Early Fault "
        "Tolerance (ISCA 2025 reproduction)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
    entry_points={
        "console_scripts": [
            # The job server is stdlib-only (asyncio + sqlite3 + json).
            "repro-service=repro.service.__main__:main",
        ],
    },
)
