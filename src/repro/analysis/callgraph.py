"""The shared interprocedural call graph behind every seglint rule.

Before this module each interprocedural rule (``txn-discipline``,
``lock-discipline``) carried its own ad-hoc AST walk: scan every
function, record bare callee names, run a reachability fixpoint.  The
walks were copies of each other, and every new whole-program rule would
have added a third.  ``CallGraph`` factors the machinery out once:

* **functions** — every function/method in the analyzed tree, keyed by
  ``(module, qualname)``, each carrying its call sites, its ``with``
  acquisitions, and its return expressions in source order;
* **spans** — each call site records the stack of ``with`` items
  lexically enclosing it (method name, receiver path, literal first
  argument), so rules can ask "is this call inside a
  ``locks.write(...)`` / ``transaction(...)`` span?" without re-walking
  the AST;
* **lightweight alias resolution** — ``resolve()`` narrows a call site
  to concrete targets using three cheap facts: ``self.f()`` binds to the
  enclosing class, ``self._attr.f()`` binds through the attribute type
  inferred from ``__init__`` (annotated parameter assignments and direct
  constructions), and ``local.f()`` binds through single-level local
  aliases (``journal = self.journal``).  Anything unresolved falls back
  to every function sharing the bare name — over-approximate, never
  unsound for may-analyses;
* **exposure fixpoint** — the entry-point reachability computation the
  discipline rules share, preserved byte-for-byte from the pre-graph
  implementations so migrating a rule cannot change its findings.

The graph is built once per analysis run (lazily, by
:class:`repro.analysis.engine.AnalysisContext`) and shared by all rules.
"""

from __future__ import annotations

import ast
import fnmatch
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.analysis.engine import SourceModule
from repro.analysis.rules.base import call_name, dotted

FuncKey = tuple[str, str]


@dataclass(frozen=True)
class Span:
    """One ``with`` item: ``with self.locks.write(path):`` or ``with self._lock:``.

    ``method`` is the call name when the context expression is a call
    (``write``), ``None`` for a bare expression (``self._lock``);
    ``receiver`` is the dotted path the expression goes through
    (``self.locks``); ``arg`` is the first positional argument when it
    is a string literal, or the literal prefix of an f-string suffixed
    with ``*`` (``counter:*``), else ``None``.
    """

    method: str | None
    receiver: str | None
    arg: str | None
    line: int


@dataclass(frozen=True)
class CallSite:
    """One call expression with its lexically enclosing ``with`` spans.

    ``method_call`` distinguishes ``obj.f()`` from a plain ``f()``; when
    it is true but ``receiver`` is ``None`` the base was a complex
    expression (subscript, call chain) the dotted-path extractor cannot
    name.
    """

    name: str
    receiver: str | None
    line: int
    spans: tuple[Span, ...]
    method_call: bool = False


@dataclass(frozen=True)
class Acquisition:
    """A ``with`` item together with the spans already active around it.

    Unlike :attr:`CallSite.spans`, ``held`` does *not* include the span
    being acquired (or later items of the same ``with`` statement) — it
    is exactly the set a lock-ordering rule must compare against.
    """

    span: Span
    held: tuple[Span, ...]


class FunctionInfo:
    """One function/method of the analyzed tree."""

    __slots__ = (
        "key",
        "name",
        "qualname",
        "class_name",
        "module",
        "node",
        "calls",
        "acquisitions",
        "returns",
    )

    def __init__(
        self,
        key: FuncKey,
        qualname: str,
        class_name: str | None,
        module: SourceModule,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.key = key
        self.name = node.name
        self.qualname = qualname
        self.class_name = class_name
        self.module = module
        self.node = node
        #: Call sites in pre-order source order.
        self.calls: list[CallSite] = []
        #: ``with`` acquisitions in source order.
        self.acquisitions: list[Acquisition] = []
        #: ``return <call>`` expressions, as spans (for factory resolution).
        self.returns: list[Span] = []


class ClassInfo:
    """Methods and inferred attribute types of one class."""

    __slots__ = ("name", "module_name", "methods", "attr_types")

    def __init__(self, name: str, module_name: str) -> None:
        self.name = name
        self.module_name = module_name
        #: bare method name -> function key
        self.methods: dict[str, FuncKey] = {}
        #: attribute name -> bare type name (from ``__init__`` inference)
        self.attr_types: dict[str, str] = {}


#: Names whose instances are builtin containers/primitives: a method call
#: through an attribute of one of these types can never target a scoped
#: function, so resolution returns nothing instead of falling back.
_BUILTIN_TYPES = frozenset(
    {
        "dict",
        "list",
        "set",
        "frozenset",
        "tuple",
        "str",
        "bytes",
        "bytearray",
        "int",
        "float",
        "OrderedDict",
        "defaultdict",
        "Counter",
        "deque",
    }
)


def _container_type(value: ast.AST | None) -> str | None:
    """Builtin container type of a literal/constructor expression."""
    if isinstance(value, ast.Dict) or isinstance(value, ast.DictComp):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, ast.Call):
        name = call_name(value)
        if name in _BUILTIN_TYPES:
            return name
    return None


def _annotation_type(node: ast.AST | None) -> str | None:
    """First concrete type name under an annotation (``T | None`` -> ``T``)."""
    if node is None:
        return None
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id not in ("None", "Optional"):
            return child.id
        if isinstance(child, ast.Attribute):
            return child.attr
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            # String annotation: take the first identifier-ish token.
            token = child.value.split("[")[0].split(".")[-1].strip('"')
            if token and token != "None":
                return token
    return None


def _make_span(item: ast.withitem) -> Span:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        receiver = dotted(expr.func.value) if isinstance(expr.func, ast.Attribute) else None
        arg: str | None = None
        if expr.args:
            first = expr.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                arg = first.value
            elif isinstance(first, ast.JoinedStr) and first.values:
                head = first.values[0]
                if isinstance(head, ast.Constant) and isinstance(head.value, str):
                    arg = head.value + "*"
        return Span(method=call_name(expr), receiver=receiver, arg=arg, line=expr.lineno)
    return Span(method=None, receiver=dotted(expr), arg=None, line=expr.lineno)


class CallGraph:
    """Whole-program call graph over one list of :class:`SourceModule`."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.functions: dict[FuncKey, FunctionInfo] = {}
        #: bare function name -> keys, in definition order.
        self.by_name: dict[str, list[FuncKey]] = defaultdict(list)
        #: bare class name -> infos (one per definition site).
        self.classes_by_name: dict[str, list[ClassInfo]] = defaultdict(list)
        #: (module name, class bare name) -> info
        self._class_of: dict[tuple[str, str], ClassInfo] = {}
        #: module name -> {local alias -> imported dotted module name}
        self._imports: dict[str, dict[str, str]] = {}
        for module in modules:
            self._scan_module(module)
        self._module_names = {module.name for module in modules}
        self._infer_attr_types()

    # -- construction ----------------------------------------------------------

    def _scan_module(self, module: SourceModule) -> None:
        imports = self._imports.setdefault(module.name, {})
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports.setdefault(local, alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports.setdefault(local, f"{node.module}.{alias.name}")

        def walk(node: ast.AST, prefix: str, cls: ClassInfo | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    info = FunctionInfo(
                        (module.name, qualname),
                        qualname,
                        cls.name if cls is not None else None,
                        module,
                        child,
                    )
                    self.functions[info.key] = info
                    self.by_name[child.name].append(info.key)
                    if cls is not None and child.name not in cls.methods:
                        cls.methods[child.name] = info.key
                    self._scan_body(child, info, [])
                    walk(child, f"{qualname}.", cls)
                elif isinstance(child, ast.ClassDef):
                    inner = ClassInfo(child.name, module.name)
                    self.classes_by_name[child.name].append(inner)
                    self._class_of[(module.name, child.name)] = inner
                    walk(child, f"{prefix}{child.name}.", inner)
                else:
                    walk(child, prefix, cls)

        walk(module.tree, "", None)

    def _scan_body(self, node: ast.AST, info: FunctionInfo, active: list[Span]) -> None:
        """Pre-order scan mirroring the legacy per-rule walks exactly:
        nested definitions are skipped (they are scanned as their own
        functions), lambdas are descended into, and every child of a
        ``with`` statement — its item expressions included — sees that
        statement's spans as active."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(child, ast.Call):
                name = call_name(child)
                if name is not None:
                    is_method = isinstance(child.func, ast.Attribute)
                    receiver = dotted(child.func.value) if is_method else None
                    info.calls.append(
                        CallSite(name, receiver, child.lineno, tuple(active), is_method)
                    )
            if isinstance(child, ast.Return) and isinstance(child.value, ast.Call):
                info.returns.append(_make_span(ast.withitem(context_expr=child.value)))
            if isinstance(child, (ast.With, ast.AsyncWith)):
                spans = [_make_span(item) for item in child.items]
                held = list(active)
                for span in spans:
                    info.acquisitions.append(Acquisition(span, tuple(held)))
                    held.append(span)
                self._scan_body(child, info, active + spans)
            else:
                self._scan_body(child, info, active)

    def _infer_attr_types(self) -> None:
        for info in self.functions.values():
            if info.class_name is None or info.name != "__init__":
                continue
            cls = self._class_of.get((info.key[0], info.class_name))
            if cls is None:
                continue
            params = {
                arg.arg: _annotation_type(arg.annotation)
                for arg in [
                    *info.node.args.posonlyargs,
                    *info.node.args.args,
                    *info.node.args.kwonlyargs,
                ]
            }
            for node in ast.walk(info.node):
                target: ast.AST | None = None
                value: ast.AST | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                inferred: str | None = None
                if isinstance(node, ast.AnnAssign):
                    inferred = _annotation_type(node.annotation)
                if inferred is None and isinstance(value, ast.Name):
                    inferred = params.get(value.id)
                if inferred is None and isinstance(value, ast.Call):
                    callee = call_name(value)
                    if callee is not None and callee in self.classes_by_name:
                        inferred = callee
                if inferred is None:
                    inferred = _container_type(value)
                if inferred is not None and target.attr not in cls.attr_types:
                    cls.attr_types[target.attr] = inferred

    # -- scoping ---------------------------------------------------------------

    def functions_in(self, patterns: Iterable[str]) -> dict[FuncKey, FunctionInfo]:
        """Functions whose module matches any of ``patterns`` (glob or exact)."""
        patterns = tuple(patterns)
        return {
            key: info
            for key, info in self.functions.items()
            if any(
                key[0] == p or fnmatch.fnmatchcase(key[0], p) for p in patterns
            )
        }

    # -- alias resolution ------------------------------------------------------

    def _local_aliases(self, info: FunctionInfo) -> dict[str, str]:
        """Local name -> bare type name, from single-level aliasing."""
        cls = (
            self._class_of.get((info.key[0], info.class_name))
            if info.class_name is not None
            else None
        )
        aliases: dict[str, str] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                annotated = _annotation_type(node.annotation)
                if annotated is not None and node.target.id not in aliases:
                    aliases[node.target.id] = annotated
                continue
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            inferred: str | None = None
            if (
                cls is not None
                and isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
            ):
                inferred = cls.attr_types.get(value.attr)
            elif isinstance(value, ast.Call):
                callee = call_name(value)
                if callee is not None and callee in self.classes_by_name:
                    inferred = callee
            if inferred is None:
                inferred = _container_type(value)
            if inferred is not None and target.id not in aliases:
                aliases[target.id] = inferred
        return aliases

    def _methods_of_type(self, type_name: str, method: str) -> list[FuncKey]:
        keys = []
        for cls in self.classes_by_name.get(type_name, ()):
            key = cls.methods.get(method)
            if key is not None:
                keys.append(key)
        return keys

    def _resolve_type(self, type_name: str, method: str, fallback: list) -> list[FuncKey]:
        """Targets of a call through a value of known bare type."""
        if type_name in _BUILTIN_TYPES:
            return []  # dict.clear() etc. never targets scoped code
        narrowed = self._methods_of_type(type_name, method)
        if narrowed:
            return narrowed
        # Known class without the method (inheritance, dynamic attrs):
        # stay over-approximate.
        return list(fallback)

    def resolve(self, caller: FunctionInfo, site: CallSite) -> list[FuncKey]:
        """Candidate targets of ``site``, narrowed where aliasing allows.

        A failed narrowing falls back to every function sharing the bare
        name (over-approximate, never unsound for may-analyses); only
        *positive* knowledge prunes harder — a receiver of builtin
        container type, or an imported external module, resolves to
        nothing because it cannot target scoped code.
        """
        fallback = self.by_name.get(site.name, [])
        if not fallback:
            return []
        receiver = site.receiver
        if receiver is None:
            if site.method_call:
                # Method call through a complex base (subscript, call
                # chain): naming the target would be a guess — skip the
                # edge rather than connect every same-named method.
                return []
            same_module = [
                key
                for key in fallback
                if key[0] == caller.key[0] and "." not in self.functions[key].qualname
            ]
            return same_module or list(fallback)
        parts = receiver.split(".")
        if parts[0] in ("self", "cls") and caller.class_name is not None:
            cls = self._class_of.get((caller.key[0], caller.class_name))
            if cls is not None:
                if len(parts) == 1:
                    own = cls.methods.get(site.name)
                    if own is not None:
                        return [own]
                elif len(parts) == 2:
                    attr_type = cls.attr_types.get(parts[1])
                    if attr_type is not None:
                        return self._resolve_type(attr_type, site.name, fallback)
        elif len(parts) == 1:
            alias_type = self._local_aliases(caller).get(parts[0])
            if alias_type is not None:
                return self._resolve_type(alias_type, site.name, fallback)
            imported = self._imports.get(caller.key[0], {}).get(parts[0])
            if imported is not None:
                if imported in self._module_names:
                    return [
                        key
                        for key in fallback
                        if key[0] == imported
                        and "." not in self.functions[key].qualname
                    ]
                if parts[0] in self.classes_by_name:
                    narrowed = self._methods_of_type(parts[0], site.name)
                    if narrowed:
                        return narrowed
                    return list(fallback)
                # External module (os, shutil, hashlib ...): its
                # functions are never scoped code.
                return []
        else:
            imported = self._imports.get(caller.key[0], {}).get(parts[0])
            if (
                imported is not None
                and imported not in self._module_names
                and parts[0] not in self.classes_by_name
            ):
                return []  # e.g. os.path.join through an external module
        return list(fallback)


def exposure(
    funcs: dict[FuncKey, FunctionInfo],
    protected: Callable[[CallSite], bool],
    wrappers: frozenset[str],
) -> set[FuncKey]:
    """The discipline rules' entry-point reachability, on the call graph.

    A function with no observed call site (by bare name, within
    ``funcs``) is an entry point unless it is a declared wrapper;
    exposure flows along call edges that are not ``protected`` and do
    not originate in a wrapper body.  This is the exact least fixpoint
    the pre-graph rules computed — migrating them onto the graph must
    not change a single finding.
    """
    sites: dict[str, list[tuple[FuncKey, bool]]] = defaultdict(list)
    for info in funcs.values():
        for site in info.calls:
            sites[site.name].append((info.key, protected(site)))

    exposed: set[FuncKey] = set()
    changed = True
    while changed:
        changed = False
        for info in funcs.values():
            if info.key in exposed:
                continue
            call_sites = sites.get(info.name, [])
            if not call_sites:
                if info.name not in wrappers:
                    exposed.add(info.key)
                    changed = True
                continue
            if any(
                not is_protected
                and caller in exposed
                and funcs[caller].name not in wrappers
                for caller, is_protected in call_sites
            ):
                exposed.add(info.key)
                changed = True
    return exposed


def iter_calls(info: FunctionInfo) -> Iterator[CallSite]:
    """The function's call sites in pre-order source order."""
    return iter(info.calls)
