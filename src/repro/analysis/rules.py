"""The shipped invariant rules (R1–R5).

Each rule encodes one hard-won invariant of the store/lease/solver
stack; ``docs/INVARIANTS.md`` maps every rule to the PR and failure mode
that motivated it.  Rules are pure AST checks — no imports of the code
under analysis — so they hold on any snippet, including test fixtures.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register

__all__ = [
    "AtomicWriteRule",
    "EventVocabularyRule",
    "NoNondeterminismRule",
    "BroadExceptRule",
    "CacheVersionBumpRule",
]


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted form of an attribute chain (``self.store.backend.get``).

    Non-name links render as ``()`` (a call in the chain) or ``?`` so the
    result stays matchable without being wrong about what it saw.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        parts.append("()")
    else:
        parts.append("?")
    return ".".join(reversed(parts))


def _contains_raise(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _exception_names(type_node: ast.expr | None) -> set[str]:
    if type_node is None:
        return set()
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


# --------------------------------------------------------------------------- #
# R1 — atomic-write
# --------------------------------------------------------------------------- #
@register
class AtomicWriteRule(Rule):
    """No raw file writes inside the scenario engine.

    A bare ``open(..., "w")``/``json.dump``/``np.save*`` write is torn by
    a crash mid-write; every persisted byte of a store/checkpoint must go
    through ``serialize.atomic_write`` (temp file + ``os.replace``) or a
    backend ``put``.
    """

    id = "atomic-write"
    title = "store/checkpoint writes must be atomic"
    rationale = (
        "a write torn by SIGKILL/OOM leaves a corrupt object that poisons "
        "every later read; PR 2/PR 5 made all store writes temp+rename or "
        "whole-object puts"
    )
    scope = ("*/repro/scenarios/*.py",)

    _NP_WRITERS = frozenset(
        {
            "np.save",
            "np.savez",
            "np.savez_compressed",
            "numpy.save",
            "numpy.savez",
            "numpy.savez_compressed",
        }
    )
    _WRITE_ATTRS = frozenset({"write_text", "write_bytes"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("open", "os.fdopen"):
                verdict = self._open_mode_verdict(node)
                if verdict:
                    yield ctx.finding(
                        node,
                        self.id,
                        f"raw {name}({verdict}) bypasses atomic_write; "
                        "a crash mid-write leaves a torn file",
                    )
            elif name == "json.dump":
                yield ctx.finding(
                    node,
                    self.id,
                    "json.dump writes incrementally; serialize the payload "
                    "and hand the bytes to atomic_write or a backend put",
                )
            elif name in self._NP_WRITERS:
                yield ctx.finding(
                    node,
                    self.id,
                    f"{name} writes incrementally; route the array payload "
                    "through serialize.atomic_write (see _atomic_savez)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._WRITE_ATTRS
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    f".{node.func.attr}() is a non-atomic whole-file write; "
                    "use serialize.atomic_write",
                )

    @staticmethod
    def _open_mode_verdict(node: ast.Call) -> str:
        """Non-empty description when the open-style call may write."""
        mode: ast.expr | None = None
        if len(node.args) > 1:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return ""  # default "r": read-only
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            if any(ch in mode.value for ch in "wax+"):
                return f"mode={mode.value!r}"
            return ""
        return "mode=<non-literal>"  # cannot prove it is read-only


# --------------------------------------------------------------------------- #
# R2 — event-vocabulary
# --------------------------------------------------------------------------- #
@register
class EventVocabularyRule(Rule):
    """Literal event kinds must belong to the tracing vocabulary.

    Consumers (status --follow, run reports, fleet telemetry) switch on
    the ``kind`` field; an off-vocabulary literal is invisible to all of
    them.  The vocabulary is parsed statically from the
    ``repro/parallel/tracing.py`` next to the analyzed file (falling
    back to the installed module), so the rule follows the constants —
    adding a kind to ``*_EVENT_KINDS`` is all it takes.
    """

    id = "event-vocabulary"
    title = "emitted event kinds must be in the tracing vocabulary"
    rationale = (
        "PR 6/7 made every consumer (live status, reports, telemetry "
        "counters) key off the EVENT_KINDS vocabulary; a typo'd kind "
        "silently vanishes from all of them"
    )
    scope = ("*/repro/*.py",)

    def __init__(self) -> None:
        self._vocab_cache: dict[Path, frozenset[str] | None] = {}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        vocabulary = self._vocabulary_for(ctx.path)
        if vocabulary is None:
            return  # no vocabulary found: nothing provable
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name not in ("emit", "_emit"):
                continue
            for kind in self._literal_kinds(node):
                if kind.value not in vocabulary:
                    yield ctx.finding(
                        kind,
                        self.id,
                        f"event kind {kind.value!r} is not in the tracing "
                        "vocabulary (EVENT_KINDS); add it there or fix the typo",
                    )

    @staticmethod
    def _literal_kinds(call: ast.Call) -> list[ast.Constant]:
        """The argument positions that can carry the ``kind`` literal."""
        hits: list[ast.Constant] = []
        for kw in call.keywords:
            if kw.arg == "kind" and isinstance(kw.value, ast.Constant) and isinstance(
                kw.value.value, str
            ):
                hits.append(kw.value)
        args = call.args
        if args and isinstance(args[0], ast.Constant) and isinstance(
            args[0].value, str
        ):
            hits.append(args[0])
        elif (
            len(args) > 1
            and isinstance(args[1], ast.Constant)
            and isinstance(args[1].value, str)
        ):
            # e.g. ``self._emit(member, "iteration", ...)`` — the first
            # slot is the routing object, the second is the kind
            hits.append(args[1])
        return hits

    def _vocabulary_for(self, path: Path) -> frozenset[str] | None:
        for parent in path.resolve().parents:
            candidate = parent / "repro" / "parallel" / "tracing.py"
            if candidate.exists():
                if candidate not in self._vocab_cache:
                    self._vocab_cache[candidate] = self._parse_vocabulary(candidate)
                return self._vocab_cache[candidate]
        return self._installed_vocabulary()

    @staticmethod
    def _parse_vocabulary(tracing_path: Path) -> frozenset[str] | None:
        """Union of the literal ``*EVENT_KINDS`` constants of tracing.py."""
        try:
            tree = ast.parse(tracing_path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            return None
        kinds: set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not any(t.endswith("EVENT_KINDS") for t in targets):
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                continue  # e.g. EVENT_KINDS = LEASE + SOLVE: already unioned
            if isinstance(value, (tuple, list, set, frozenset)):
                kinds.update(str(v) for v in value)
        return frozenset(kinds) if kinds else None

    @staticmethod
    def _installed_vocabulary() -> frozenset[str] | None:
        try:
            from repro.parallel.tracing import EVENT_KINDS
        except ImportError:
            return None
        return frozenset(EVENT_KINDS)


# --------------------------------------------------------------------------- #
# R3 — no-nondeterminism
# --------------------------------------------------------------------------- #
@register
class NoNondeterminismRule(Rule):
    """Hashing and round-trip code must be bit-reproducible.

    ``spec.py`` content hashes and ``serialize.py`` round-trips define
    scenario identity across machines and years; a clock read, an RNG
    draw, or dict-order-dependent JSON in those files silently forks the
    identity of otherwise-equal scenarios.
    """

    id = "no-nondeterminism"
    title = "no clocks/RNG/dict-order effects in hashed or round-trip code"
    rationale = (
        "content_hash is the store key and steal/resume identity (PR 2/6); "
        "two hashes of one spec must agree across processes and platforms"
    )
    scope = (
        "*/repro/scenarios/spec.py",
        "*/repro/scenarios/serialize.py",
    )

    _FORBIDDEN_EXACT = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.perf_counter",
            "uuid.uuid1",
            "uuid.uuid4",
            "os.urandom",
        }
    )
    _FORBIDDEN_PREFIXES = ("random.", "np.random.", "numpy.random.", "secrets.")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in self._FORBIDDEN_EXACT or name.startswith(
                self._FORBIDDEN_PREFIXES
            ):
                yield ctx.finding(
                    node,
                    self.id,
                    f"{name}() is nondeterministic; hashed/round-trip code "
                    "must be a pure function of its inputs",
                )
            elif name == "json.dumps" and not self._sorts_keys(node):
                yield ctx.finding(
                    node,
                    self.id,
                    "json.dumps without sort_keys=True leaks dict insertion "
                    "order into serialized bytes; pass sort_keys=True",
                )

    @staticmethod
    def _sorts_keys(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "sort_keys":
                return bool(
                    isinstance(kw.value, ast.Constant) and kw.value.value is True
                )
        return False


# --------------------------------------------------------------------------- #
# R4 — broad-except
# --------------------------------------------------------------------------- #
@register
class BroadExceptRule(Rule):
    """Broad exception handlers must propagate or justify themselves.

    ``except Exception``/``except BaseException``/bare ``except`` blocks
    that swallow are how lost leases get committed and injected crashes
    get "handled": ``LeaseLost``/``SolveAbandoned`` are ordinary
    ``Exception`` subclasses, so a swallowing broad handler eats them.
    A broad handler is compliant when its body re-raises (any ``raise``)
    or when the line carries a reasoned ``# repro: allow`` explaining
    why swallowing is safe there.
    """

    id = "broad-except"
    title = "broad except blocks must re-raise or carry a written reason"
    rationale = (
        "a swallowed SolveAbandoned/LeaseLost means two workers commit the "
        "same scenario (PR 6); a swallowed InjectedCrash voids a fault test"
    )
    scope = ("*/repro/*.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.finding(
                    node,
                    self.id,
                    "bare `except:` also catches KeyboardInterrupt and "
                    "injected crashes; name the exceptions",
                )
                continue
            names = _exception_names(node.type)
            if "BaseException" in names and not _contains_raise(node):
                yield ctx.finding(
                    node,
                    self.id,
                    "`except BaseException` without re-raise swallows "
                    "KeyboardInterrupt/InjectedCrash; re-raise after cleanup",
                )
            elif "Exception" in names and not _contains_raise(node):
                yield ctx.finding(
                    node,
                    self.id,
                    "`except Exception` that swallows also swallows "
                    "SolveAbandoned/LeaseLost; re-raise, narrow the type, or "
                    "justify with `# repro: allow[broad-except] -- why`",
                )


# --------------------------------------------------------------------------- #
# R5 — cache-version-bump
# --------------------------------------------------------------------------- #
@register
class CacheVersionBumpRule(Rule):
    """Grid mutators must invalidate the version-keyed caches.

    Any class owning ``_invalidate_caches`` keys derived structures
    (points, hierarchization neighbours, compressed kernels) on a version
    counter; a method that writes the tracked data arrays without bumping serves
    stale caches to every later fit/evaluate call.
    """

    id = "cache-version-bump"
    title = "mutations of version-cached containers must bump the version"
    rationale = (
        "SparseGrid caches hierarchization/compression structure by version; a "
        "mutator that skips _invalidate_caches() interpolates from stale "
        "structure and corrupts every downstream solve"
    )
    scope = ("*/repro/grids/*.py",)

    _EXEMPT = frozenset(
        {"__init__", "__post_init__", "__new__", "__setattr__", "_invalidate_caches"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        methods = [
            item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if not any(m.name == "_invalidate_caches" for m in methods):
            return
        tracked = self._tracked_attributes(cls, methods)
        for method in methods:
            if method.name in self._EXEMPT:
                continue
            mutation = self._first_tracked_mutation(method, tracked)
            if mutation is not None and not self._bumps_version(method):
                yield ctx.finding(
                    mutation,
                    self.id,
                    f"{cls.name}.{method.name} mutates "
                    f"{'/'.join(sorted(tracked))} without calling "
                    "_invalidate_caches() (or bumping _version); derived "
                    "caches go stale",
                )

    @staticmethod
    def _tracked_attributes(
        cls: ast.ClassDef, methods: list[ast.FunctionDef | ast.AsyncFunctionDef]
    ) -> frozenset[str]:
        tracked: set[str] = set()
        for item in cls.body:  # dataclass-style annotated fields
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                if not item.target.id.startswith("_"):
                    tracked.add(item.target.id)
        for method in methods:  # attributes assigned during construction
            if method.name not in ("__init__", "__post_init__"):
                continue
            for node in ast.walk(method):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        name = CacheVersionBumpRule._self_attr(target)
                        if name and not name.startswith("_"):
                            tracked.add(name)
        return frozenset(tracked)

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        """``X`` for a ``self.X``/``self.X[...]`` target, else ``None``."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _first_tracked_mutation(
        self, method: ast.AST, tracked: frozenset[str]
    ) -> ast.AST | None:
        for node in ast.walk(method):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                name = self._self_attr(target)
                if name in tracked:
                    return node
        return None

    @staticmethod
    def _bumps_version(method: ast.AST) -> bool:
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                if dotted_name(node.func).endswith("._invalidate_caches"):
                    return True
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if CacheVersionBumpRule._self_attr(target) == "_version":
                    return True
        return False
