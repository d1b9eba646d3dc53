"""reproflow: whole-program static analysis for this repo.

Five passes over one shared program model (see ``engine``): parse +
call graph (RF000), interprocedural RNG-provenance taint (RF001/RF002),
state-machine extraction + model checking against declared transition
tables (RF003/RF004), bidirectional obs-name coverage (RF005/RF006),
and reachability from the repository's entry points (RF007). Run it with ``python -m tools.reproflow`` or
``repro flow``; rules and workflow are documented in
``docs/static-analysis.md``.
"""
