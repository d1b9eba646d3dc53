"""Seeded defect: the entry point reaches ``area`` but not ``unused_area``."""

from repro.geometry import area


def main():
    return area(2.0, 3.0)
