"""Computational calculus of weight sequences, weight functions and
weight matrices: exact piecewise-linear convex duality, regularizations,
three-valued growth/relation verdicts, a constructive non-quasianalytic
minorant, and a desk-scale Fourier verification harness."""

__version__ = "0.1.0"
