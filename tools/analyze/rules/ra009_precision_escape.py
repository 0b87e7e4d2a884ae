"""RA009: float32 values must not cross the public result boundary.

The float64 result contract: ``QueryResult`` and ``BackendEstimate``
always carry float64 fields.  GSP sweeps run in float64 end to end, but
speed histories are stored compactly:
:class:`~repro.traffic.history.SpeedHistory` keeps its ``(days, slots,
roads)`` array as float32 (``traffic/history.py``), and the simulator
(``traffic/simulator.py``) and the dataset loaders
(``datasets/loaders.py``) build it from float32 casts.  Its accessors
(``slot_samples``, ``day``) upcast with ``dtype=np.float64``; the raw
``values`` view does not.  A float32 array that leaks into a public
result silently halves every downstream consumer's precision (and
breaks the documented dtype).

Taint: values become ``f32`` at literal float32 casts
(``.astype(np.float32)``, ``dtype=np.float32``, ``np.float32(...)``,
``"float32"`` dtype strings, an enum member's ``FLOAT32.dtype()``), flow
through arithmetic, helper returns (call-graph summaries), and
containers, and are killed by float64 casts (``.astype(np.float64)``,
``dtype=float``/``np.float64``, ``float(...)``).  Sinks are the
``QueryResult(...)`` / ``BackendEstimate(...)`` constructor arguments.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from tools.analyze.callgraph import FunctionInfo, build_callgraph
from tools.analyze.core import Finding, Project, Rule, dotted_name
from tools.analyze.dataflow import TaintSpec, run_taint

TAG_F32 = "f32"
_SINKS = {"QueryResult", "BackendEstimate"}
_F64_NAMES = {"float64", "float", "double"}
_F32_NAMES = {"float32", "single", "half", "float16"}


def _dtype_class(node: Optional[ast.AST]) -> Optional[str]:
    """'f32' / 'f64' / None for a dtype-position expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value in _F32_NAMES:
            return "f32"
        if node.value in _F64_NAMES:
            return "f64"
        return None
    dotted = dotted_name(node) or ""
    tail = dotted.rsplit(".", 1)[-1]
    if tail in _F32_NAMES or "FLOAT32" in dotted:
        return "f32"
    if tail in _F64_NAMES or "FLOAT64" in dotted:
        return "f64"
    return None


def _dtype_keyword(call: ast.Call) -> Optional[ast.AST]:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


class _PrecisionSpec(TaintSpec):
    def call_tags(self, func: FunctionInfo, node: ast.Call, ctx) -> Optional[Set[str]]:
        callee = node.func
        # float(x) and int(x) return scalars outside the array contract.
        if isinstance(callee, ast.Name) and callee.id in ("float", "int", "len"):
            return set()
        dotted = dotted_name(callee) or ""
        tail = dotted.rsplit(".", 1)[-1]
        if tail in _F32_NAMES:
            return {TAG_F32}
        if tail in _F64_NAMES:
            return set()
        if isinstance(callee, ast.Attribute) and callee.attr == "astype":
            target = node.args[0] if node.args else _dtype_keyword(node)
            klass = _dtype_class(target)
            if klass == "f32":
                return {TAG_F32}
            if klass == "f64":
                return set()
            # astype(dtype) with a variable: tainted iff the dtype
            # expression itself flows from a float32 source.
            if target is not None and TAG_F32 in ctx.evaluate(target):
                return {TAG_F32}
            return None
        dtype_arg = _dtype_keyword(node)
        if dtype_arg is not None:
            klass = _dtype_class(dtype_arg)
            if klass == "f32":
                return {TAG_F32}
            if klass == "f64":
                return set()
            if TAG_F32 in ctx.evaluate(dtype_arg):
                return {TAG_F32}
        if isinstance(callee, ast.Attribute) and callee.attr == "dtype":
            # An enum member's dtype, e.g. ``Policy.FLOAT32.dtype()``.
            if "FLOAT32" in (dotted_name(callee.value) or ""):
                return {TAG_F32}
        return None

    def attribute_tags(
        self, func: FunctionInfo, node: ast.Attribute, base: frozenset
    ) -> Optional[Set[str]]:
        if node.attr in _F32_NAMES:
            return {TAG_F32}
        return None


class RA009PrecisionEscape(Rule):
    rule_id = "RA009"
    name = "precision-escape"
    rationale = (
        "QueryResult/BackendEstimate document float64 fields; a float32 "
        "array (e.g. raw SpeedHistory storage) escaping the boundary "
        "silently halves downstream precision"
    )

    def check(self, project: Project) -> List[Finding]:
        graph = build_callgraph(project)
        flows = run_taint(graph, _PrecisionSpec())
        findings: List[Finding] = []
        for key in sorted(flows):
            flow = flows[key]
            func = flow.func
            for site in func.calls:
                callee = site.node.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else getattr(callee, "attr", None)
                )
                if name not in _SINKS:
                    continue
                for label, arg in _constructor_args(site.node):
                    if TAG_F32 in flow.tags_of(arg):
                        findings.append(
                            self.finding(
                                func.module,
                                site.line,
                                f"{func.qualname}: {name}({label}=...) receives "
                                "a float32-tainted value; launder with "
                                ".astype(np.float64) before the public result "
                                "boundary",
                            )
                        )
        return findings


def _constructor_args(call: ast.Call):
    for index, arg in enumerate(call.args):
        yield f"arg{index}", arg
    for kw in call.keywords:
        if kw.arg:
            yield kw.arg, kw.value
