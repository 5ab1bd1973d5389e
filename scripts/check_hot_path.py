#!/usr/bin/env python
"""Custom lint guarding the allocation rules of the transaction hot path.

The per-transaction pipeline (endorse -> order -> validate) allocates a
handful of objects five-plus times per transaction, so three rules keep it
lean and a fourth keeps its one shortcut sound (see "Hot path" in
docs/ARCHITECTURE.md):

1. **Slots.**  Every ``@dataclass`` defined in a declared hot-path module
   must either pass ``slots=True`` or define ``__slots__`` in its body —
   per-instance ``__dict__`` allocation on these classes is a measurable
   regression.  In the modules of ``SLOTS_EVERY_CLASS`` the rule covers plain
   classes too (the client's ``EndorsementRound`` is allocated once per
   attempt and is not a dataclass).  Classes listed in ``SLOTS_EXEMPT`` (cold
   configuration objects living in hot modules) are skipped.

2. **No stream resolution per event.**  ``RandomStreams.stream()`` derives
   a stream via SHA-256 + dict lookup; components must resolve their
   streams once at build time and keep the ``random.Random`` handle.  Any
   ``.stream(...)`` call outside the known build-time methods of the
   declared modules fails the lint.

3. **One collector policy.**  Nothing under ``src/`` may switch the cyclic
   collector on or off, retune or freeze it (``gc.disable`` / ``enable`` /
   ``set_threshold`` / ``freeze``) except ``repro/sim/collector.py``, whose
   ``quiet_collector`` scope is the policy every run path enters.

4. **Pure chaincode functions.**  A simulation result is shared by the
   endorsements of one channel that make the same call against the same
   state — across transactions, not only across one transaction's
   endorsers — so a chaincode function must be a pure function of
   ``(state, args)``: inside any ``@chaincode_function`` under
   ``src/repro/chaincode/`` — and in the bodies the generator produces
   (``GeneratedChaincode._make_function``'s closure and the source
   ``ChaincodeGenerator._emit_function`` emits) — no assignment to anything
   reached through ``self``, and no reference to ``random``, ``rng``,
   ``time`` or ``os``.  The stub is the only thing a function may read or
   write.

Run from the repository root (CI runs it in the lint job)::

    python scripts/check_hot_path.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules whose dataclasses ride the per-transaction hot path.
SLOTS_MODULES = [
    "src/repro/ledger/block.py",
    "src/repro/ledger/rwset.py",
    "src/repro/ledger/kvstore.py",
    "src/repro/chaincode/api.py",
    "src/repro/lifecycle/events.py",
    "src/repro/network/client_node.py",
]

#: The hot-path modules in which *every* class is held to the slots rule,
#: dataclass or not.
SLOTS_EVERY_CLASS = {"src/repro/network/client_node.py"}

#: Hot-module classes excused from the slots rule (cold configuration or
#: registry objects that merely live in the same file).
SLOTS_EXEMPT = {
    "DatabaseLatencyProfile",  # two module-level singletons, never re-allocated
    "ClientNode",  # one per client process, built once per run
}

#: Modules whose per-event methods must not resolve RNG streams.
STREAM_MODULES = [
    "src/repro/network",
    "src/repro/workload",
    "src/repro/lifecycle",
    "src/repro/ledger",
    "src/repro/chaincode",
    "src/repro/channels",
]

#: Function/method names allowed to call ``.stream(...)``: build-time paths
#: that run once per deployment (or per experiment repetition), not per event.
STREAM_ALLOWED_FUNCTIONS = {
    "__init__",
    "__post_init__",
    "build",
    "configure",
    # Per-run setup entrypoints: resolve streams once, before any event fires.
    "run",
    "start_clients",
}
STREAM_ALLOWED_PREFIXES = ("_build", "_make", "make_")


def _decorator_named(node, name: str) -> ast.expr | None:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        found = None
        if isinstance(target, ast.Name):
            found = target.id
        elif isinstance(target, ast.Attribute):
            found = target.attr
        if found == name:
            return decorator
    return None


def _has_slots_true(decorator: ast.expr) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
            return bool(keyword.value.value)
    return False


def _defines_dunder_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def check_slots(source: str, label: str, every_class: bool = False) -> list[str]:
    """Rule 1 over one module's source (``label`` names it in the messages)."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef) or node.name in SLOTS_EXEMPT:
            continue
        decorator = _decorator_named(node, "dataclass")
        if decorator is None and not every_class:
            continue
        if (decorator is not None and _has_slots_true(decorator)) or _defines_dunder_slots(node):
            continue
        errors.append(
            f"{label}:{node.lineno}: hot-path class "
            f"{node.name!r} must pass slots=True (or define __slots__); "
            "add it to SLOTS_EXEMPT in scripts/check_hot_path.py only for "
            "cold configuration objects"
        )
    return errors


class _StreamCallVisitor(ast.NodeVisitor):
    """Collects ``.stream(...)`` calls with their enclosing function name."""

    def __init__(self) -> None:
        self.function_stack: list[str] = []
        self.violations: list[tuple[int, str]] = []

    def _visit_function(self, node) -> None:
        self.function_stack.append(node.name)
        self.generic_visit(node)
        self.function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "stream":
            function = self.function_stack[-1] if self.function_stack else "<module>"
            if not (
                function in STREAM_ALLOWED_FUNCTIONS
                or function.startswith(STREAM_ALLOWED_PREFIXES)
            ):
                self.violations.append((node.lineno, function))
        self.generic_visit(node)


def check_stream_calls(path: Path) -> list[str]:
    visitor = _StreamCallVisitor()
    visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
    return [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: RandomStreams.stream() called in "
        f"{function!r} — resolve streams once at build time and keep the handle "
        "(see 'Hot path' in docs/ARCHITECTURE.md)"
        for lineno, function in visitor.violations
    ]


#: The only module under ``src/`` allowed to change the collector's state, and
#: the calls that do.
COLLECTOR_POLICY_MODULE = "src/repro/sim/collector.py"
COLLECTOR_STATE_CALLS = {"disable", "enable", "set_threshold", "freeze"}


def check_collector_calls(path: Path) -> list[str]:
    errors = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        names: list[str] = []
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "gc"
        ):
            names = [node.func.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            names = [alias.name for alias in node.names]
        errors.extend(
            f"{path.relative_to(REPO_ROOT)}:{node.lineno}: gc.{name} outside "
            f"{COLLECTOR_POLICY_MODULE} — enter repro.sim.collector.quiet_collector() "
            "instead (see 'Memory and the collector' in docs/ARCHITECTURE.md)"
            for name in names
            if name in COLLECTOR_STATE_CALLS
        )
    return errors


#: Where chaincode functions live, and the names one may not mention: state
#: must come from the stub alone, never from a generator, a clock or the host.
CHAINCODE_PACKAGE = "src/repro/chaincode"
CHAINCODE_IMPURE_NAMES = {"random", "rng", "time", "os"}
#: Methods whose nested functions become chaincode functions at run time.
CHAINCODE_FACTORIES = {"_make_function"}


def _rooted_at_self(target: ast.expr) -> bool:
    while isinstance(target, (ast.Attribute, ast.Subscript)):
        target = target.value
    return isinstance(target, ast.Name) and target.id == "self"


def _impurities(function: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(function):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            elements = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
            if any(_rooted_at_self(element) for element in elements):
                found.append((node.lineno, "assigns to the chaincode object"))
        if isinstance(node, ast.Name) and node.id in CHAINCODE_IMPURE_NAMES:
            found.append((node.lineno, f"refers to {node.id!r}"))
        elif isinstance(node, ast.arg) and node.arg in CHAINCODE_IMPURE_NAMES:
            found.append((node.lineno, f"takes a parameter {node.arg!r}"))
    return found


def check_chaincode_purity(source: str, label: str) -> list[str]:
    """Rule 4 over one module's source (``label`` names it in the messages)."""
    errors = []
    for node in ast.walk(ast.parse(source)):
        functions: list[ast.AST] = []
        if not isinstance(node, ast.FunctionDef):
            continue
        if _decorator_named(node, "chaincode_function") is not None:
            functions = [node]
        elif node.name in CHAINCODE_FACTORIES:
            functions = [
                inner
                for inner in ast.walk(node)
                if isinstance(inner, ast.FunctionDef) and inner is not node
            ]
        for function in functions:
            errors.extend(
                f"{label}:{lineno}: chaincode function {function.name!r} {what} — "
                "a simulation result is shared by the endorsements of one channel, so "
                "the stub is the only thing a function may read or write (see 'One "
                "simulation per replica state' in docs/ARCHITECTURE.md)"
                for lineno, what in _impurities(function)
            )
    return errors


def emitted_chaincode_source() -> str:
    """A module from ``ChaincodeGenerator.source_code`` using every operation."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec
    finally:
        sys.path.pop(0)
    generator = ChaincodeGenerator(name="lint", database="couchdb", num_keys=16)
    generator.add_function(
        FunctionSpec(
            name="everything",
            reads=1,
            updates=1,
            inserts=1,
            deletes=1,
            range_reads=1,
            range_size=2,
            rich_queries=1,
        )
    )
    generator.add_function(FunctionSpec(name="query", reads=1))  # read-only decorator form
    return generator.source_code()


def main() -> int:
    errors: list[str] = []
    for relative in SLOTS_MODULES:
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        errors.extend(check_slots(source, relative, relative in SLOTS_EVERY_CLASS))
    for relative in STREAM_MODULES:
        root = REPO_ROOT / relative
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            errors.extend(check_stream_calls(path))
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if path != REPO_ROOT / COLLECTOR_POLICY_MODULE:
            errors.extend(check_collector_calls(path))
    for path in sorted((REPO_ROOT / CHAINCODE_PACKAGE).rglob("*.py")):
        errors.extend(
            check_chaincode_purity(
                path.read_text(encoding="utf-8"), str(path.relative_to(REPO_ROOT))
            )
        )
    errors.extend(
        check_chaincode_purity(
            emitted_chaincode_source(), "ChaincodeGenerator.source_code() output"
        )
    )
    if errors:
        print("\n".join(errors))
        print(f"\ncheck_hot_path: {len(errors)} violation(s)")
        return 1
    print("check_hot_path: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
