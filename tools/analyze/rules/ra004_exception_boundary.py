"""RA004: public entry points raise only ``ReproError`` subclasses.

The v2 contract (docs/API.md) promises callers of the pipeline facade,
the serving layer, and the CLI that every failure surfaces as a
``ReproError`` — internal slips are converted by ``wrap_internal``.
This rule walks every ``raise`` in those modules and flags raises of
builtin (non-``ReproError``) exceptions outside a lexical
``with wrap_internal(...)`` region.

The ``ReproError`` hierarchy is read from the analyzed ``errors.py``
module itself, so the rule follows the tree as it grows.
"""

from __future__ import annotations

import ast
import builtins
from typing import List, Optional, Set

from tools.analyze.core import Finding, Module, Project, Rule

_BUILTIN_EXCEPTIONS = {
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
}

#: Modules covered by the boundary contract (relpath suffix match).
_SCOPE_SUFFIXES = ("pipeline.py", "cli.py")
_SCOPE_FRAGMENTS = ("/serve/", "/stream/", "/backends/")

_ROOT_CLASS = "ReproError"


class RA004ExceptionBoundary(Rule):
    rule_id = "RA004"
    name = "exception-boundary"
    rationale = (
        "a stray ValueError through the serving layer bypasses the "
        "documented error contract and the CLI's exit-code mapping"
    )

    def check(self, project: Project) -> List[Finding]:
        hierarchy = _repro_error_names(project)
        findings: List[Finding] = []
        for module in project.modules:
            if not _in_scope(module):
                continue
            findings.extend(self._check_module(module, hierarchy))
        return findings

    def _check_module(self, module: Module, hierarchy: Set[str]) -> List[Finding]:
        findings: List[Finding] = []

        def visit(node: ast.AST, shielded: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = shielded or any(
                    _is_wrap_internal(item.context_expr) for item in node.items
                )
                for item in node.items:
                    visit(item.context_expr, shielded)
                for stmt in node.body:
                    visit(stmt, inner)
                return
            if isinstance(node, ast.Raise) and not shielded:
                name = _raised_name(node)
                if (
                    name is not None
                    and name in _BUILTIN_EXCEPTIONS
                    and name not in hierarchy
                ):
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"raises builtin {name} across the public "
                            "boundary; raise a ReproError subclass (or wrap "
                            "the region in wrap_internal)",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, shielded)

        visit(module.tree, shielded=False)
        return findings


def _in_scope(module: Module) -> bool:
    relpath = module.relpath
    return relpath.endswith(_SCOPE_SUFFIXES) or any(
        fragment in relpath for fragment in _SCOPE_FRAGMENTS
    )


def _is_wrap_internal(expr: ast.AST) -> bool:
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "wrap_internal"


def _raised_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if exc is None:
        return None  # bare re-raise keeps the original contract
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _repro_error_names(project: Project) -> Set[str]:
    """Transitive subclasses of ``ReproError`` declared in ``errors.py``."""
    errors_module = project.find_module("errors.py")
    hierarchy: Set[str] = {_ROOT_CLASS}
    if errors_module is None:
        return hierarchy
    classes = {}
    for node in ast.walk(errors_module.tree):
        if isinstance(node, ast.ClassDef):
            bases = {
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in node.bases
            }
            classes[node.name] = bases
    changed = True
    while changed:
        changed = False
        for name, bases in classes.items():
            if name not in hierarchy and bases & hierarchy:
                hierarchy.add(name)
                changed = True
    return hierarchy
