"""Naive reference implementations the differential tests check against."""
