"""Imperative staged-query language pipeline."""

from __future__ import annotations

from . import ast
from .compile import (
    Compiler,
    PineapplCompileError,
    PineapplRunError,
    compile_source,
    run_compiled,
    run_program,
)
from .expand import PineapplExpandError, expand
from .parser import PineapplSyntaxError, parse

__all__ = [
    "parse", "expand", "compile_source", "run_compiled", "run_program", "Compiler",
    "PineapplSyntaxError", "PineapplExpandError",
    "PineapplCompileError", "PineapplRunError",
]
