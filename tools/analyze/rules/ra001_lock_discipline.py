"""RA001: attributes mutated both inside and outside the class lock.

For every class that declares a lock (``self._lock = threading.Lock()``
or friends), collect each first-level ``self`` attribute's mutation
sites and whether each site runs under a ``with self.<lock>`` block.
An attribute mutated on *both* sides is a race: the locked sites prove
the author considered it shared, so every unlocked site (outside
``__init__``) is flagged.

Condition variables alias the lock they wrap, and methods returning a
class lock (``with self._active_lock():``) count as acquisitions.
Nested functions and lambdas are skipped — they execute later, on some
other call stack, and their lock context cannot be read off lexically.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from tools.analyze.core import Finding, Module, Project, Rule
from tools.analyze.locks import (
    CONSTRUCTION_METHODS,
    ClassLockInfo,
    collect_class_locks,
    mutations_at,
    with_item_lock_attrs,
)


class RA001LockDiscipline(Rule):
    rule_id = "RA001"
    name = "lock-discipline"
    rationale = (
        "an attribute written both under and outside the class lock is a "
        "data race: one side tears the other's read-modify-write"
    )

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            for info in collect_class_locks(module):
                findings.extend(self._check_class(module, info))
        return findings

    def _check_class(self, module: Module, info: ClassLockInfo) -> List[Finding]:
        locked_sites: Dict[str, List[int]] = {}
        unlocked_sites: Dict[str, List[int]] = {}

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # nested callable: runs on another stack
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired: Set[str] = set()
                for item in node.items:
                    acquired |= with_item_lock_attrs(item, info)
                    visit(item.context_expr, locked)
                body_locked = locked or bool(acquired)
                for stmt in node.body:
                    visit(stmt, body_locked)
                return
            for attr, lineno in mutations_at(node):
                if attr in info.attrs:
                    continue  # reassigning the lock itself is not guarded data
                bucket = locked_sites if locked else unlocked_sites
                bucket.setdefault(attr, []).append(lineno)
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for item in info.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in CONSTRUCTION_METHODS:
                continue
            for stmt in item.body:
                visit(stmt, locked=False)

        lock_names = ", ".join(
            f"self.{attr}"
            for attr, kind in sorted(info.attrs.items())
            if kind != "condition"
        )
        findings: List[Finding] = []
        for attr in sorted(set(locked_sites) & set(unlocked_sites)):
            locked_at = min(locked_sites[attr])
            for lineno in sorted(set(unlocked_sites[attr])):
                findings.append(
                    self.finding(
                        module,
                        lineno,
                        f"class {info.node.name}: 'self.{attr}' is mutated "
                        f"without holding {lock_names or 'the class lock'} "
                        f"(also mutated under the lock, e.g. line {locked_at})",
                    )
                )
        return findings
