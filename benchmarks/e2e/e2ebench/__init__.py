"""The repository's end-to-end benchmark (see ``benchmarks/e2e/README.md``).

The package drives only the program's public front doors and owns its
schedule generator, clock calibration, span recorder and oracle, so a
refactor under ``src/`` cannot move the benchmark's inputs.
"""
