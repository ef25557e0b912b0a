"""Age-of-information analysis and simulation for TDMA and CR-NOMA uplinks.

A legacy TDMA uplink is augmented with cognitive-radio inspired NOMA so that
paired users get a second transmission opportunity per frame.  The package
provides closed-form average-AoI expressions for both schemes under two data
generation models (generate-at-will and generate-at-request), a Monte Carlo
simulator with an exact per-frame AoI kernel, and independent oracles.
Import the submodules; the package itself exposes only ``__version__``.
"""

__version__ = "0.1.0"
