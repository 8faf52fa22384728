"""Decorator-based registries for policies, scenarios, topologies, figures
and metrics.

The experiment stack is declarative: a run is described by *names* —
``"onth"``, ``"commuter"``, ``"erdos_renyi"`` — that resolve to the callables
implementing them. Each component family lives in a :class:`Registry`
populated by ``@register_*`` decorators at the definition site::

    @register_policy("onth")
    class OnTH(AllocationPolicy): ...

    @register_topology("erdos_renyi", aliases=("er",))
    def erdos_renyi(n, p=0.01, seed=None, ...): ...

Lookups are case-insensitive and treat ``-`` and ``_`` as equivalent
(``"onbr-dyn"`` and ``ONBR_DYN`` resolve the same entry). Unknown names raise
:class:`UnknownNameError` listing close matches and the full inventory, so a
CLI typo is a one-line fix instead of a stack trace.

Registries populate lazily: resolving or listing imports the builtin
modules first, so ``resolve_policy("onth")`` works without the caller ever
importing :mod:`repro.algorithms`. This also makes worker processes
self-sufficient — a pickled spec resolves its names after the fork/spawn.
"""

from __future__ import annotations

import difflib
import importlib
from typing import Any, Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "Registry",
    "UnknownNameError",
    "FigureEntry",
    "normalize_name",
    "POLICIES",
    "SCENARIOS",
    "TOPOLOGIES",
    "FIGURES",
    "METRICS",
    "register_policy",
    "register_scenario",
    "register_topology",
    "register_figure",
    "register_metric",
    "resolve_policy",
    "resolve_scenario",
    "resolve_topology",
    "resolve_figure",
    "resolve_metric",
    "list_policies",
    "list_scenarios",
    "list_topologies",
    "list_figures",
    "list_metrics",
]


def normalize_name(name: str) -> str:
    """Canonical lookup key: lowercase, ``-`` and ``_`` interchangeable."""
    return str(name).strip().lower().replace("-", "_")


_normalize = normalize_name


class UnknownNameError(LookupError):
    """A registry lookup failed; carries suggestions for the error message.

    Attributes:
        kind: the registry's component family (``"policy"``, ...).
        name: the name that failed to resolve.
        suggestions: close matches among the registered names.
        known: every registered name.
    """

    def __init__(self, kind: str, name: str, known: Sequence[str]) -> None:
        self.kind = kind
        self.name = name
        self.known = tuple(known)
        self.suggestions = tuple(
            difflib.get_close_matches(_normalize(name),
                                      [_normalize(k) for k in known], n=3)
        )
        hint = (
            f"; did you mean {', '.join(repr(s) for s in self.suggestions)}?"
            if self.suggestions
            else ""
        )
        inventory = ", ".join(known) if known else "<none registered>"
        super().__init__(
            f"unknown {kind} {name!r}{hint} (known {kind} names: {inventory})"
        )

    def __reduce__(self):
        # Default exception pickling replays __init__ with bad arguments;
        # process-pool workers must be able to ship this error to the parent.
        return (type(self), (self.kind, self.name, self.known))


def _identity(entry: Any) -> "tuple | None":
    """Where an entry was defined, for re-registration tolerance.

    A module whose import failed partway (e.g. KeyboardInterrupt) is removed
    from ``sys.modules`` and re-executed on the next import, re-running its
    decorators with *new* function/class objects. Entries defined at the
    same module/qualname are the same definition and may overwrite; anything
    else is a genuine name clash.
    """
    target = entry.fn if isinstance(entry, FigureEntry) else entry
    module = getattr(target, "__module__", None)
    qualname = getattr(target, "__qualname__", None)
    if module is None or qualname is None:
        return None  # unidentifiable: never treated as equal
    return (module, qualname)


class Registry:
    """A name → callable mapping for one component family.

    Args:
        kind: human-readable family name used in error messages.
        builtin_modules: modules imported on first lookup so the builtin
            ``@register_*`` decorations have run.
    """

    def __init__(self, kind: str, builtin_modules: Sequence[str] = ()) -> None:
        self.kind = kind
        self._builtin_modules = tuple(builtin_modules)
        self._loaded = False
        self._entries: dict[str, Any] = {}
        self._display: dict[str, str] = {}
        #: every lookup key -> the key of the name it was registered under
        self._primary: dict[str, str] = {}

    # -- population ------------------------------------------------------------

    def register(
        self, name: str, *, aliases: Sequence[str] = ()
    ) -> Callable[[Any], Any]:
        """Decorator registering ``name`` (and ``aliases``) for the target."""

        def decorate(target: Any) -> Any:
            for alias in (name, *aliases):
                key = _normalize(alias)
                if not key:
                    raise ValueError(f"{self.kind} names must be non-empty")
                existing = self._entries.get(key)
                if existing is not None and existing is not target:
                    identity = _identity(existing)
                    same_definition = (
                        identity is not None and identity == _identity(target)
                    )
                    if not same_definition:
                        raise ValueError(
                            f"{self.kind} {alias!r} is already registered "
                            f"(to {existing!r})"
                        )
                self._entries[key] = target
                self._display.setdefault(key, str(alias))
                self._primary[key] = _normalize(name)
            return target

        return decorate

    def _ensure_builtins(self) -> None:
        if self._loaded:
            return
        # Flag first so registrations triggered by these imports don't
        # re-enter; reset on failure so a transient ImportError does not
        # leave the registry permanently (and confusingly) empty.
        self._loaded = True
        try:
            for module in self._builtin_modules:
                importlib.import_module(module)
        except BaseException:
            self._loaded = False
            raise

    # -- lookups ---------------------------------------------------------------

    def resolve(self, name: str) -> Any:
        """The entry registered under ``name``; raises :class:`UnknownNameError`."""
        self._ensure_builtins()
        key = _normalize(name)
        if key not in self._entries:
            raise UnknownNameError(self.kind, name, self.names())
        return self._entries[key]

    def primary(self, name: str) -> str:
        """The name the entry behind ``name`` was registered under.

        An alias maps to its entry's primary name, any spelling to the
        registered one; raises :class:`UnknownNameError` like :meth:`resolve`.
        """
        self.resolve(name)
        return self._display[self._primary[_normalize(name)]]

    def names(self) -> tuple[str, ...]:
        """All registered names (including aliases), sorted."""
        self._ensure_builtins()
        return tuple(sorted(self._display.values()))

    def __contains__(self, name: str) -> bool:
        self._ensure_builtins()
        return _normalize(name) in self._entries

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def items(self) -> tuple[tuple[str, Any], ...]:
        """(primary name, entry) pairs, sorted by name.

        Each registration appears once under the name it was registered
        with — aliases resolve but are not enumerated, so inventory-driven
        consumers (the CLI's ``--list`` and ``all``) never duplicate work.
        """
        self._ensure_builtins()
        primary = sorted(set(self._primary.values()), key=self._display.get)
        return tuple((self._display[key], self._entries[key]) for key in primary)


class FigureEntry(NamedTuple):
    """A registered figure: its builder plus the quick-scale overrides.

    A NamedTuple so legacy ``fn, quick = entry`` unpacking keeps working.
    """

    fn: Callable[..., Any]
    quick: dict


POLICIES = Registry("policy", builtin_modules=("repro.algorithms",))
SCENARIOS = Registry("scenario", builtin_modules=("repro.workload", "repro.traces"))
TOPOLOGIES = Registry("topology", builtin_modules=("repro.topology",))
FIGURES = Registry(
    "figure",
    builtin_modules=("repro.experiments.figures", "repro.experiments.ablations"),
)
METRICS = Registry("metric", builtin_modules=("repro.api.metrics",))


def register_policy(name: str, *, aliases: Sequence[str] = ()):
    """Register an :class:`~repro.core.policy.AllocationPolicy` factory."""
    return POLICIES.register(name, aliases=aliases)


def register_scenario(name: str, *, aliases: Sequence[str] = ()):
    """Register a scenario factory ``f(substrate, **params) -> generator``."""
    return SCENARIOS.register(name, aliases=aliases)


def register_topology(name: str, *, aliases: Sequence[str] = ()):
    """Register a topology factory ``f(**params) -> Substrate``."""
    return TOPOLOGIES.register(name, aliases=aliases)


def register_figure(
    name: str, *, quick: "dict | None" = None, aliases: Sequence[str] = ()
):
    """Register a figure builder together with its quick-scale overrides."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        FIGURES.register(name, aliases=aliases)(FigureEntry(fn, dict(quick or {})))
        return fn

    return decorate


def register_metric(name: str, *, aliases: Sequence[str] = ()):
    """Register a metric function ``f(context, **params) -> {series: value}``.

    A metric maps the full per-policy :class:`~repro.core.results.RunResult`
    ledgers of one replicate (exposed through a
    :class:`~repro.api.metrics.MetricContext`) to named scalar series; see
    :mod:`repro.api.metrics` for the built-ins.
    """
    return METRICS.register(name, aliases=aliases)


def resolve_policy(name: str) -> Any:
    """The policy factory registered under ``name``."""
    return POLICIES.resolve(name)


def resolve_scenario(name: str) -> Any:
    """The scenario factory registered under ``name``."""
    return SCENARIOS.resolve(name)


def resolve_topology(name: str) -> Any:
    """The topology factory registered under ``name``."""
    return TOPOLOGIES.resolve(name)


def resolve_figure(name: str) -> FigureEntry:
    """The :class:`FigureEntry` registered under ``name``."""
    return FIGURES.resolve(name)


def list_policies() -> tuple[str, ...]:
    """All registered policy names."""
    return POLICIES.names()


def list_scenarios() -> tuple[str, ...]:
    """All registered scenario names."""
    return SCENARIOS.names()


def list_topologies() -> tuple[str, ...]:
    """All registered topology names."""
    return TOPOLOGIES.names()


def resolve_metric(name: str) -> Any:
    """The metric function registered under ``name``."""
    return METRICS.resolve(name)


def list_figures() -> tuple[str, ...]:
    """All registered figure names."""
    return FIGURES.names()


def list_metrics() -> tuple[str, ...]:
    """All registered metric names."""
    return METRICS.names()
