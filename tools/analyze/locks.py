"""Shared lock modelling for the RA001/RA002 rules.

Identifies, per module:

* module-level locks (``_ENGINES_LOCK = threading.Lock()``),
* per-class lock attributes (``self._lock = threading.RLock()``), with
  ``threading.Condition(self._lock)`` treated as an alias of the wrapped
  lock and parameter-assigned attributes (``self._lock = lock``) marked
  ``external`` so instances can later be aliased to the lock their
  constructor receives,
* lock-returning helper methods (``return self._lock``), so
  ``with self._active_lock():`` counts as an acquisition.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from tools.analyze.core import Module, dotted_name, self_attr_path

LOCK_FACTORIES = {"Lock", "RLock", "Condition"}
#: Attribute names that look like locks even when assigned from a parameter.
_LOCKISH_SUFFIXES = ("lock", "mutex")

#: Methods exempt from the both-sides rule: construction happens before
#: the object is shared, so unlocked writes there are not races.
CONSTRUCTION_METHODS = {"__init__", "__post_init__", "__new__"}


def lock_factory_of(node: ast.AST) -> Optional[str]:
    """``Lock``/``RLock``/``Condition`` when node is a threading factory call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in LOCK_FACTORIES
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ):
        return func.attr
    if isinstance(func, ast.Name) and func.id in LOCK_FACTORIES:
        return func.id
    return None


def looks_like_lock_name(attr: str) -> bool:
    return attr.lstrip("_").lower().endswith(_LOCKISH_SUFFIXES)


@dataclasses.dataclass
class ClassLockInfo:
    """Lock attributes declared by one class."""

    module: Module
    node: ast.ClassDef
    #: attr -> kind ("lock" | "rlock" | "condition" | "external")
    attrs: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: condition attr -> the lock attr it wraps (same class)
    condition_wraps: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: method name -> lock attrs it may return (``_active_lock`` style)
    lock_returners: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)
    #: external lock attr -> __init__ parameter name it was assigned from
    attr_from_param: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module.relpath}::{self.node.name}"

    def canonical_attr(self, attr: str) -> str:
        """Resolve a condition attr to the lock it wraps (if known)."""
        return self.condition_wraps.get(attr, attr)


def collect_class_locks(module: Module) -> List[ClassLockInfo]:
    """Lock declarations for every class in a module (top-level classes)."""
    out: List[ClassLockInfo] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassLockInfo(module=module, node=node)
        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for method in methods:
            param_names = {arg.arg for arg in method.args.args}
            for stmt in ast.walk(method):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    attr = self_attr_path(target)
                    if attr is None or "." in attr:
                        continue
                    factory = lock_factory_of(stmt.value)
                    if factory == "Condition":
                        info.attrs[attr] = "condition"
                        call = stmt.value
                        if isinstance(call, ast.Call) and call.args:
                            wrapped = self_attr_path(call.args[0])
                            if wrapped and "." not in wrapped:
                                info.condition_wraps[attr] = wrapped
                    elif factory == "RLock":
                        info.attrs[attr] = "rlock"
                    elif factory == "Lock":
                        info.attrs[attr] = "lock"
                    elif (
                        looks_like_lock_name(attr)
                        and isinstance(stmt.value, ast.Name)
                        and method.name in CONSTRUCTION_METHODS
                    ):
                        info.attrs.setdefault(attr, "external")
                        if stmt.value.id in param_names:
                            info.attr_from_param[attr] = stmt.value.id
        # Helper methods whose return value is one of the class locks.
        for method in methods:
            returned: Set[str] = set()
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Return) and stmt.value is not None:
                    attr = self_attr_path(stmt.value)
                    if attr and "." not in attr and attr in info.attrs:
                        returned.add(attr)
            if returned:
                info.lock_returners[method.name] = returned
        if info.attrs:
            out.append(info)
    return out


def collect_module_locks(module: Module) -> Dict[str, str]:
    """Module-level ``NAME = threading.Lock()`` declarations: name -> kind."""
    out: Dict[str, str] = {}
    for stmt in module.tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        factory = lock_factory_of(stmt.value)
        if factory is None:
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                out[target.id] = factory.lower()
    return out


def with_item_lock_attrs(
    item: ast.withitem, info: ClassLockInfo
) -> Set[str]:
    """Canonical lock attrs acquired by one ``with`` item of a method.

    Handles ``with self._lock:``, Condition aliases, and lock-returning
    helper calls (``with self._active_lock():``).
    """
    expr = item.context_expr
    attr = self_attr_path(expr)
    if attr and "." not in attr and attr in info.attrs:
        return {info.canonical_attr(attr)}
    if isinstance(expr, ast.Call):
        callee = self_attr_path(expr.func)
        if callee and "." not in callee and callee in info.lock_returners:
            return {info.canonical_attr(a) for a in info.lock_returners[callee]}
    return set()


def module_lock_in_with(
    item: ast.withitem, module_locks: Dict[str, str]
) -> Optional[str]:
    """Module-level lock name acquired by a ``with`` item, if any."""
    expr = item.context_expr
    if isinstance(expr, ast.Name) and expr.id in module_locks:
        return expr.id
    dotted = dotted_name(expr)
    if dotted:
        tail = dotted.rsplit(".", 1)[-1]
        if tail in module_locks and dotted.count(".") <= 1:
            return tail
    return None


#: Container methods that mutate their receiver in place.
CONTAINER_MUTATORS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "discard",
    "add",
    "clear",
    "update",
    "setdefault",
    "move_to_end",
    "sort",
    "reverse",
}


def mutations_at(node: ast.AST) -> List[Tuple[str, int]]:
    """First-level ``self`` attributes mutated by exactly this node.

    Covers assignment/augmented-assignment/annotated-assignment targets,
    ``del self.x[...]``, subscript stores, and calls of known container
    mutator methods (``self._queue.append(...)``).  The caller is
    responsible for traversal (and for skipping nested callables).
    """
    found: List[Tuple[str, int]] = []

    def record_target(target: ast.AST, lineno: int) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record_target(element, lineno)
            return
        if isinstance(target, ast.Starred):
            record_target(target.value, lineno)
            return
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        attr = self_attr_path(base)
        if attr:
            found.append((attr.split(".")[0], lineno))

    if isinstance(node, ast.Assign):
        for target in node.targets:
            record_target(target, node.lineno)
    elif isinstance(node, ast.AugAssign):
        record_target(node.target, node.lineno)
    elif isinstance(node, ast.AnnAssign):
        if node.value is not None:
            record_target(node.target, node.lineno)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            record_target(target, node.lineno)
    elif isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in CONTAINER_MUTATORS:
            attr = self_attr_path(func.value)
            if attr:
                found.append((attr.split(".")[0], node.lineno))
    return found
