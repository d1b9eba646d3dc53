"""Paper-shape tests: the paper's claims, read from the full report golden."""
