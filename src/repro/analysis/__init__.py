"""repro-analyze — repo-specific static analysis for the repro stack.

Nine PRs of growth accreted crash-safety invariants that regression
tests only catch *after* a violation corrupts a store: every persisted
write must be wholesale-atomic, every emitted event kind must belong
to the tracing vocabulary, hashing code must be deterministic, broad
excepts must not swallow abandonment, and grid mutators must bump the
cache version.
This package rejects violations at CI time instead::

    repro-analyze src/                 # or: python -m repro.analysis src/
    repro-analyze --list-rules
    repro-analyze --json src/ | jq .findings

Exit codes are script-friendly: 0 clean, 1 findings, 2 usage error.
Suppress one finding with ``# repro: allow[rule-id] -- reason`` on the
offending line (or alone on the line above); the reason is mandatory
and stale suppressions are themselves findings.  The engine is
stdlib-only and purely static — it never imports the code it checks.
"""

from repro.analysis import rules as rules  # registers the shipped rules
from repro.analysis.engine import (
    RULES,
    AnalysisResult,
    FileContext,
    Finding,
    Rule,
    analyze_file,
    analyze_paths,
    iter_python_files,
    register,
)

#: analyzer version, reported by ``repro-analyze --version`` and in the
#: ``--json`` envelope (kept in lockstep with the package version)
__version__ = "1.43.0"

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "RULES",
    "Rule",
    "__version__",
    "analyze_file",
    "analyze_paths",
    "iter_python_files",
    "register",
    "rules",
]
