"""Parallel experiment-runner substrate.

Fan sweep/Monte-Carlo task grids out over a process pool with
deterministic per-task seeding, chunked dispatch, structured failure
capture, a content-addressed result store, and throughput metrics.  See
``docs/RUNNER.md`` for the API and the determinism contract.

This package is infrastructure like ``sim/``: it knows nothing about the
node models.  Experiment-specific task functions live in
:mod:`repro.studies` and :mod:`repro.campaigns`.
"""
