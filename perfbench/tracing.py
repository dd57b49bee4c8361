"""Layer spans and counters for the traced run, recorded from outside.

``install`` replaces each function or method named in ``TARGETS`` with a
wrapper that records a span (name, start, end, parent) in memory and
feeds the call's arguments and return value to a counter hook.  A
function is rebound in every ``quillen`` module that binds it, since the
modules import each other's names.  Nothing inside the package changes;
``uninstall`` puts the originals back.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import quillen

# simplices and boundary nonzeros are counted per degree up to this one;
# higher degrees go into the last bucket
TOP_DEGREE = 4


def _degree_key(stem, k):
    return f"{stem}.d{k}" if k < TOP_DEGREE else f"{stem}.d{TOP_DEGREE}_up"


def _count_generate(c, args, kwargs, G):
    c["groups.order"] += G.order


def _count_lookup_rows(c, args, kwargs, out):
    c["groups.lookup_rows.rows"] += len(out)


def _count_elab(c, args, kwargs, subs):
    c["groups.elab.calls"] += 1
    c["groups.elab.subgroups"] += len(subs)


def _count_poset(c, args, kwargs, P):
    c["pposets.poset.elements"] += P.n


def _count_ap_poset(c, args, kwargs, P):
    c["pposets.ap_poset.calls"] += 1


def _count_core(c, args, kwargs, out):
    c["posets.core.calls"] += 1
    c["posets.core.points"] += out[0].n


def _count_complex(c, args, kwargs, K):
    for k, n in enumerate(K.simplex_counts):
        c["posets.simplices"] += n
        c[_degree_key("posets.simplices", k)] += n


def _count_raw(c, args, kwargs, raw):
    for k, cols in raw.cols.items():
        nnz = sum(map(len, cols))
        c["homology.boundary_nnz"] += nnz
        c[_degree_key("homology.boundary_nnz", k)] += nnz


def _count_rank(c, args, kwargs, out):
    c["homology.sparse_rank.calls"] += 1


def _count_betti(c, args, kwargs, out):
    c["homology.betti.calls"] += 1


# (span name, module, attribute path, counter hook); the attribute path
# is "function" or "Class.method"
TARGETS = [
    ("gspec.load_group", "quillen.gspec", "load_group", None),
    ("groups.generate", "quillen.groups", "PermGroup.generate", _count_generate),
    ("groups.lookup_rows", "quillen.groups", "PermGroup.lookup_rows",
     _count_lookup_rows),
    ("groups.close_indices", "quillen.groups", "close_indices", None),
    ("groups.normalizer", "quillen.groups", "normalizer", None),
    ("groups.normal_subgroups", "quillen.groups", "normal_subgroups", None),
    ("groups.conjugation_action", "quillen.groups", "conjugation_action", None),
    ("groups.centralizer", "quillen.groups", "centralizer", None),
    ("groups.intersection", "quillen.groups", "Subgroup.intersection", None),
    ("groups.elab", "quillen.groups", "elementary_abelian_subgroups", _count_elab),
    ("pposets.poset_from_subgroups", "quillen.pposets", "poset_from_subgroups",
     _count_poset),
    ("pposets.ap_poset", "quillen.pposets", "ap_poset", _count_ap_poset),
    ("pposets.orbit_context", "quillen.pposets", "OrbitContext.__init__", None),
    ("pposets.decomposition", "quillen.pposets", "decomposition", None),
    ("pposets.bouc_poset", "quillen.pposets", "bouc_poset", None),
    ("posets.beat_point_core", "quillen.posets", "beat_point_core", _count_core),
    ("posets.order_complex", "quillen.posets", "order_complex", _count_complex),
    ("homology.raw_complex", "quillen.homology", "RawComplex.from_simplicial",
     _count_raw),
    ("homology.verify_dd", "quillen.homology", "RawComplex.verify_dd_zero", None),
    ("homology.sparse_rank", "quillen.homology", "sparse_rank", _count_rank),
    ("homology.cone_rank", "quillen.homology", "cone_rank_profile", None),
    ("homology.betti_of_poset", "quillen.homology", "betti_of_poset", _count_betti),
    ("checkers.check_conditions", "quillen.checkers", "check_conditions", None),
    ("checkers.check_thm41", "quillen.checkers", "check_thm41", None),
    ("checkers.check_thm410", "quillen.checkers", "check_thm410", None),
    ("checkers.check_propEM", "quillen.checkers", "check_propEM", None),
]


class Tracer:
    """Spans kept in memory as parallel arrays, plus integer counters."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(counter_names(), 0)
        self._stack = []

    def wrap(self, name, fn, hook):
        nid = self.names.index(name)
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, out)
            return out

        traced.__traced__ = fn
        return traced

    def dump(self):
        """The spans and counters as one JSON-ready dict."""
        return {"names": self.names, "name": self.name.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counters": self.counters}


def counter_names():
    names = ["groups.order", "groups.lookup_rows.rows", "groups.elab.calls",
             "groups.elab.subgroups", "pposets.poset.elements",
             "pposets.ap_poset.calls", "posets.core.calls", "posets.core.points",
             "posets.simplices", "homology.boundary_nnz",
             "homology.sparse_rank.calls", "homology.betti.calls"]
    for k in range(TOP_DEGREE + 1):
        names.append(_degree_key("posets.simplices", k))
        names.append(_degree_key("homology.boundary_nnz", k))
    return names


def quillen_modules():
    """Every quillen module, importing the ones not loaded yet."""
    for info in pkgutil.iter_modules(quillen.__path__, "quillen."):
        importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if n == "quillen" or n.startswith("quillen.")]


def _owner(module, path):
    owner = importlib.import_module(module)
    *cls, attr = path.split(".")
    for c in cls:
        owner = getattr(owner, c)
    return owner, attr


def install(tracer):
    """Wrap every target; return the list of (owner, attr, original)."""
    modules = quillen_modules()
    patched = []
    for name, module, path, hook in TARGETS:
        owner, attr = _owner(module, path)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                wrapped = tracer.wrap(name, raw, hook)
            patched.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(name, raw, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    patched.append((mod, key, raw))
                    setattr(mod, key, wrapped)
    unwrapped = unwrapped_bindings(modules)
    if unwrapped:
        uninstall(patched)
        raise RuntimeError(f"targets still bound unwrapped: {unwrapped}")
    return patched


def uninstall(patched):
    for owner, attr, raw in reversed(patched):
        setattr(owner, attr, raw)


def unwrapped_bindings(modules=None):
    """Names in quillen modules or classes that bind a target unwrapped."""
    modules = modules or quillen_modules()
    bad = []
    for name, module, path, _ in TARGETS:
        owner, attr = _owner(module, path)
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if not hasattr(fn, "__traced__"):
            bad.append(f"{module}.{path}")
        if isinstance(owner, type):
            continue
        original = getattr(fn, "__traced__", fn)
        bad += [f"{mod.__name__}.{key}" for mod in modules
                for key, value in vars(mod).items() if value is original]
    return bad
