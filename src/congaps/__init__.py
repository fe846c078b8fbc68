"""Constants, constructions, and counts around consecutive congruent
primes with small gaps."""

__version__ = "0.1.0"
