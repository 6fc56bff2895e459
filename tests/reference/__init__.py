"""Interpreted reference implementations the optimized paths are checked against."""
