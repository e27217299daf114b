"""Range-Doppler analysis of periodic binary transmission masks.

Half-duplex operation gates a unit-energy symbol stream with an N-periodic
0/1 mask and listens in the complementary slots. This package constructs
mask families (Singer difference sets, combs, random), evaluates the
closed-form expected squared range-Doppler response, validates it with a
symbol-level Monte Carlo oracle, and certifies the sidelobe bounds and
optimality properties of the mask families.

Python API: import the modules, not the package root, e.g.
``from maskrd import masks, spectra, response, montecarlo, metrics``.
Each public name lives in the module that defines it, listed in that
module's ``__all__``; the root holds only ``__version__``.
"""

__version__ = "0.1.0"
