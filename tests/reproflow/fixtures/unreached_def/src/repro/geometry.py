"""Two helpers; only ``area`` is called from the entry point."""


def area(w, h):
    return w * h


# Only a test would call this: RF007 line 9.
def unused_area(w, h):
    return area(w, h) / 2.0
