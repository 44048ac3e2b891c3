"""Shared test helpers: load the shipped logic and vector files; a
state-free logic."""

from __future__ import annotations

import pathlib

import ctxlab
from ctxlab.logic import Logic, parse_logic

DATA = pathlib.Path(ctxlab.__file__).parent / "data"
# a 6-atom prism whose context sums give 2 over the two 3-atom contexts and
# 3 over the three 2-atom ones: no probability measure, hence no state
PRISM = "context 1 2 3\ncontext 4 5 6\ncontext 1 4\ncontext 2 5\ncontext 3 6\n"


def load_logic(name: str) -> Logic:
    return parse_logic((DATA / f"{name}.logic").read_text())


def read_vectors(name: str) -> str:
    return (DATA / f"{name}.vec").read_text()
