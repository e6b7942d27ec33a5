"""In-memory span tracing of the public functions of every ``mealy`` module.

The benchmark measures the library as it stands, so nothing under ``src/``
records spans.  Instead ``Tracer.install`` replaces each public function
with a wrapper that records one span per call, in every namespace that
bound the function (``from .levels import level_maps`` in ``schreier``,
``transitivity`` and friends, and the package ``__init__``).  A name bound
before ``install`` runs keeps the unwrapped function, so install first and
import the workloads afterwards.

Spans are kept per thread in flat arrays (id, name, start, end, parent,
work) and only read when the run ends: ``layer_metrics`` computes each
span's self time (its duration minus the union of its children's
intervals) and the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
from array import array
from collections import defaultdict
from time import perf_counter

class _Buffer:
    """Spans recorded by one thread; only that thread appends to it."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.sid = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.work = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._constructions = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._main: _Buffer | None = None
        self.table_spaces: dict[tuple[int, int], int] = {}

    # -- recording -----------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(threading.get_ident())
            self._buffers.append(buf)  # list.append is atomic under the GIL
            if threading.current_thread() is threading.main_thread():
                self._main = buf
        return buf

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, work=None, rename=None):
        """fn recording one span per call.

        work(args, kwargs, result) gives the call's work amount for rate
        metrics; rename(result) picks the span name from the result.  Both
        run after the span's end time is taken.
        """
        nid = self._name_id(name)
        alt = {}
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's top-level call was caused by whatever the
                # main thread has open (the CLI call that made the pool)
                main = tracer._main
                parent = main.stack[-1] if main is not None and main.stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                tracer._record(buf, sid, nid, start, end, parent, 0.0)
                raise
            end = perf_counter()
            stack.pop()
            name_id = nid
            if rename is not None:
                sub = rename(result)
                if sub not in alt:
                    alt[sub] = tracer._name_id(f"{name}.{sub}")
                name_id = alt[sub]
            tracer._record(buf, sid, name_id, start, end, parent,
                           work(args, kwargs, result) if work is not None else 0.0)
            return result

        return traced

    @staticmethod
    def _record(buf, sid, nid, start, end, parent, work):
        buf.sid.append(sid)
        buf.name.append(nid)
        buf.start.append(start)
        buf.end.append(end)
        buf.parent.append(parent)
        buf.work.append(work)

    def constructions(self) -> int:
        """Automaton constructions so far; read once, at the end of the run.

        next() on an itertools.count is atomic, so pool threads lose no
        count; the read itself advances the counter.
        """
        return next(self._constructions)

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of each module of package."""
        mods = {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
                for info in pkgutil.iter_modules(package.__path__)}
        specials = _specials(self, mods)
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj):
                    # a generator's body runs in its consumer's span
                    continue
                name = f"{short}.{attr}"
                work, rename = specials.get(name, (None, None))
                replaced[id(obj)] = self.wrap(name, obj, work=work, rename=rename)
        for ns in [package, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])

        GroupWord = mods["words"].GroupWord
        GroupWord.reduce = self.wrap("words.GroupWord.reduce", GroupWord.reduce)
        Automaton = mods["automaton"].Automaton
        init = Automaton.__init__
        counter = self._constructions

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            next(counter)
            init(obj, *args, **kwargs)

        Automaton.__init__ = counted_init

    # -- reading ---------------------------------------------------------------

    def spans(self) -> int:
        return sum(len(b.sid) for b in self._buffers)

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: id, name, start, end, parent, thread."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for b in self._buffers:
                for i in range(len(b.sid)):
                    fh.write(f"{b.sid[i]}\t{self.names[b.name[i]]}\t{b.start[i]:.9f}\t"
                             f"{b.end[i]:.9f}\t{b.parent[i]}\t{b.thread}\n")

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed work.

        Also "pipeline_s" for classify.classify_cotransitive: its inclusive
        time minus that of the canonical_keys calls made directly under it.
        """
        sids, parents, names, works = [], [], [], []
        starts, ends = array("d"), array("d")
        for b in self._buffers:
            sids.extend(b.sid)
            parents.extend(b.parent)
            names.extend(self.names[k] for k in b.name)
            works.extend(b.work)
            starts.extend(b.start)
            ends.extend(b.end)
        index = {sid: i for i, sid in enumerate(sids)}
        parent_of = [index.get(p, -1) for p in parents]
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(parent_of):
            if p >= 0:
                children[p].append(i)

        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0, "pipeline_s": 0.0})
        pipeline = out["classify.classify_cotransitive"]
        for i, name in enumerate(names):
            s, e = starts[i], ends[i]
            # union of the child intervals clipped to [s, e]; pool threads can
            # run children of one span at the same time
            covered, cur_s, cur_e = 0.0, s, s
            for a, b in sorted((max(starts[k], s), min(ends[k], e)) for k in children.get(i, ())):
                if a > cur_e:
                    covered += cur_e - cur_s
                    cur_s = a
                cur_e = max(cur_e, b)
            covered += cur_e - cur_s
            rec = out[name]
            rec["calls"] += 1
            rec["incl_s"] += e - s
            rec["self_s"] += max(0.0, (e - s) - covered)
            rec["work"] += works[i]
            if name == "classify.classify_cotransitive":
                pipeline["pipeline_s"] += e - s
            elif (name == "classify.canonical_keys" and parent_of[i] >= 0
                  and names[parent_of[i]] == "classify.classify_cotransitive"):
                pipeline["pipeline_s"] -= e - s
        return out


def _specials(tracer: Tracer, mods: dict):
    """Work extractors and renamers for the spans that feed rate metrics."""
    signed_letters = mods["automaton"]._signed_letters
    table_space_size = mods["classify"].table_space_size
    GroupWord = mods["words"].GroupWord

    def act_steps(args, kwargs, result):
        M, w = args[0], args[1]
        nw = len(w) if isinstance(w, GroupWord) else len(signed_letters(M, w))
        return float(nw * len(result))

    def keys_tables(args, kwargs, result):
        # every canonical_keys call in the workloads runs to completion
        q, a = args[0], args[1]
        N = table_space_size(q, a)
        tracer.table_spaces[(q, a)] = N
        return float(N)

    return {
        "automaton.act": (act_steps, None),
        "levels.level_maps": (lambda args, kwargs, result: float(result.size), None),
        "levels.is_single_cycle": (lambda args, kwargs, result: float(len(args[0])), None),
        "classify.canonical_keys": (keys_tables, None),
        "classify.classify_cotransitive":
            (lambda args, kwargs, result: float(result.classes_total), None),
        "spectral.spectrum": (None, lambda result: result.solver),
    }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values, keyed by their BENCHMARK.json names."""
    g = tracer.aggregate().__getitem__  # a defaultdict: absent layers read 0

    m: dict[str, float] = {"cli.self_s": g("cli.main")["self_s"]}

    keys = g("classify.canonical_keys")
    m["classify.canonical_keys.calls"] = keys["calls"]
    m["classify.canonical_keys.self_s"] = keys["self_s"]
    m["classify.keys.tables_per_s"] = _rate(keys["work"], keys["self_s"])
    m["classify.keys.useful_ratio"] = (
        sum(tracer.table_spaces.values()) / keys["work"] if keys["work"] else 0.0)
    cc = g("classify.classify_cotransitive")
    m["classify.classify_cotransitive.self_s"] = cc["self_s"]
    m["classify.classes_per_s"] = _rate(cc["work"], cc["pipeline_s"])
    conj = g("classify.conjugation_decide")
    m["classify.conjugation_decide.calls"] = conj["calls"]
    m["classify.conjugation_decide.self_s"] = conj["self_s"]

    m["automaton.Automaton.constructions"] = tracer.constructions()
    m["automaton.dual.calls"] = g("automaton.dual")["calls"]
    for fn in ("dual", "properties", "product", "minimize_map"):
        m[f"automaton.{fn}.self_s"] = g(f"automaton.{fn}")["self_s"]

    act = g("automaton.act")
    m["automaton.act.calls"] = act["calls"]
    m["automaton.act.self_s"] = act["self_s"]
    m["automaton.act.steps_per_s"] = _rate(act["work"], act["self_s"])
    for fn in ("act_inf", "group_section", "dual_act"):
        m[f"automaton.{fn}.self_s"] = g(f"automaton.{fn}")["self_s"]
    m["words.GroupWord.reduce.self_s"] = g("words.GroupWord.reduce")["self_s"]

    for fn in ("level_maps", "is_single_cycle"):
        rec = g(f"levels.{fn}")
        m[f"levels.{fn}.calls"] = rec["calls"]
        m[f"levels.{fn}.self_s"] = rec["self_s"]
        m[f"levels.{fn}.points_per_s"] = _rate(rec["work"], rec["self_s"])
    for fn in ("has_spanning_orbit", "level_permutation"):
        m[f"levels.{fn}.self_s"] = g(f"levels.{fn}")["self_s"]

    for fn in ("build", "diameter", "find_level_witness", "steer_to", "verify_lift"):
        m[f"schreier.{fn}.self_s"] = g(f"schreier.{fn}")["self_s"]

    for solver in ("dense", "iterative"):
        rec = g(f"spectral.spectrum.{solver}")
        m[f"spectral.spectrum.{solver}.calls"] = rec["calls"]
        m[f"spectral.spectrum.{solver}.self_s"] = rec["self_s"]
    m["spectral.adjacency.self_s"] = g("spectral.adjacency")["self_s"]

    for fn in ("cotransitivity", "dual_state_spans_level", "stabilizes_infinite",
               "orbit_cycle", "is_transitive_exact", "char_rational"):
        rec = g(f"transitivity.{fn}")
        m[f"transitivity.{fn}.calls"] = rec["calls"]
        m[f"transitivity.{fn}.self_s"] = rec["self_s"]

    for fn in ("preperiod_growth", "lemma_transitive_check"):
        m[f"bellaterra.{fn}.self_s"] = g(f"bellaterra.{fn}")["self_s"]
    m["trace.spans"] = tracer.spans()
    return m
