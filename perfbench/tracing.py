"""Per-layer spans recorded from outside the program.

Each traced function is wrapped once and the wrapper is installed under
every module attribute that holds the original object, so a call made
through an imported name (for example `dashings.garden_check` or
`search.search_dashings`) is seen too.  A span's self time is its
duration minus the time covered by the traced calls made inside it.
Counts are derived from arguments and return values, never from
counters inside the program.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "adinkra"

# (defining module, function) per layer; `isomorphism` and `dot` are on
# no path a workload uses.
LAYERS = (
    ("cli", "main"),
    ("graph", "from_json"),
    ("graph", "validate"),
    ("graph", "to_matrices"),
    ("graph", "connected_components"),
    ("catalog", "builtin"),
    ("filters", "candidacy"),
    ("filters", "bicolor_components"),
    ("filters", "quads"),
    ("garden", "garden_check"),
    ("garden", "product_tables"),
    ("garden", "format_matrix"),
    ("dashings", "search_dashings"),
    ("dashings", "gauge_fix"),
    ("search", "run_search"),
    ("search", "canonical_form"),
    ("fixtures", "compare_products"),
)

DERIVED = (
    "garden.cells",
    "dashings.candidates",
    "dashings.orbits",
    "dashings.refused",
    "search.raw_size",
    "search.pruned",
    "search.classes",
    "search.canonical_in_search",
    "search.refused",
)


def _is_budget_error(exc: BaseException) -> bool:
    return any(t.__name__ == "BudgetError" for t in type(exc).__mro__)


class Tracer:
    """Wraps the layer functions of the imported `adinkra` package."""

    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f in LAYERS}
        self.self_s = {f"{m}.{f}": 0.0 for m, f in LAYERS}
        self.counts = {name: 0 for name in DERIVED}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [name, child seconds]
        self._installed: list[tuple[object, str, object]] = []
        self._forests: dict[int, tuple] = {}
        self.unobserved: set[str] = set()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        self.absent = []
        for mod_name, fn_name in LAYERS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            orig = getattr(home, fn_name, None) if home is not None else None
            if not callable(orig):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed = []
        self._forests.clear()

    def _wrap(self, name: str, orig):
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                if _is_budget_error(exc):
                    layer = name.split(".")[0]
                    if f"{layer}.refused" in self.counts:
                        self.counts[f"{layer}.refused"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
            try:
                self._observe(name, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self.unobserved.add(name)  # the layer's interface changed
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    # -- counts from arguments and results ---------------------------------

    def _observe(self, name, args, kwargs, result) -> None:
        if name == "garden.garden_check":
            mats = args[0] if args else kwargs.get("matrices")
            n = len(mats)
            d, dh = mats[0].shape
            self.counts["garden.cells"] += n * (n + 1) // 2 * (d * d + dh * dh)
        elif name == "dashings.gauge_fix":
            g = args[0] if args else kwargs.get("g")
            self._forests[id(g)] = tuple(result)
        elif name == "dashings.search_dashings":
            g = args[0] if args else kwargs.get("g")
            self.counts["dashings.orbits"] += int(result.count_gauge_orbits)
            self.counts["dashings.candidates"] += self._candidates(g, result)
        elif name == "search.run_search":
            raw = getattr(result, "raw_size", None)
            if raw is None:
                raw = getattr(result, "scanned", 0)
            self.counts["search.raw_size"] += int(raw)
            self.counts["search.pruned"] += sum(int(c) for _, c in result.pruned)
            self.counts["search.classes"] += len(result.solutions)
        elif name == "search.canonical_form":
            if any(f[0] == "search.run_search" for f in self._stack):
                self.counts["search.canonical_in_search"] += 1

    def _candidates(self, g, result) -> int:
        """Sign vectors the scan had to consider: 2^free in exhaustive
        mode, the witness's free-edge index + 1 in witness mode.  The free
        edges are those off the forest `gauge_fix` returned for this graph;
        without one the count is not derivable (KeyError)."""
        if result.pruned_reason:
            return 0
        k = int(result.free_edge_count)
        if result.exhaustive or result.witness is None:
            return 1 << k
        forest = set(self._forests[id(g)])
        free = [i for i in range(len(result.witness.signs)) if i not in forest]
        index = 0
        for idx in free:
            index = (index << 1) | (1 if result.witness.signs[idx] > 0 else 0)
        return index + 1

    # -- report --------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures averaged over `passes` traced rounds."""
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key] / passes
            out[f"{key}.self_s"] = self.self_s[key] / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        cand = self.counts["dashings.candidates"]
        out["dashings.useful_ratio"] = self.counts["dashings.orbits"] / cand if cand else 0.0
        canon = self.counts["search.canonical_in_search"]
        out["search.useful_ratio"] = self.counts["search.classes"] / canon if canon else 0.0
        return out
