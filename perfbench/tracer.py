"""In-memory span recorder and the wrappers that feed it.

A span is one call into a layer: name, start, end, parent span id and a
count (Newton iterations of a level solve, CG iterations of a linear
solve).  Spans are kept in a list while the workload runs and written out
once at the end.

The wrappers are installed at the names the package looks its callees up
by (module globals and SciPy module attributes), so the library itself is
not edited.  `Tracer.installed()` restores every original on exit.  A
target that no longer exists, for example after a refactor renames it, is
skipped and its layer is reported as absent.
"""

import contextlib
import functools
import importlib
import time

# (module, attribute, span name).  The level solves are told apart by the
# module that calls them: resolvent sweeps versus the monolithic reference.
TARGETS = (
    ("stsplit.iteration", "resolvent_solve", "resolvent"),
    ("stsplit.iteration", "build_context", "context"),
    ("stsplit.iteration", "h_norm", "monitor.h_norm"),
    ("stsplit.iteration", "k_functional", "monitor.k_functional"),
    ("stsplit.iteration", "primal_F", "monitor.primal_F"),
    ("stsplit.resolvent", "newton_level_solve", "newton"),
    ("stsplit.resolvent", "apply_A", "residual"),
    ("stsplit.reference", "newton_level_solve", "reference.level"),
    ("scipy.linalg", "solve_banded", "linear.banded"),
    ("scipy.sparse.linalg", "cg", "linear.cg"),
)

# Span record fields.
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """Span recorder for one single-threaded workload process."""

    def __init__(self):
        self.spans = []
        self._open = []  # ids of the spans enclosing the current call
        self.absent = []  # TARGETS entries that could not be resolved

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as a span; yields its record."""
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        if name == "linear.cg":
            return self._wrap_cg(fn)
        counts_iterations = name in ("newton", "reference.level")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if counts_iterations:
                    rec[COUNT] = out.iterations
                return out

        return traced

    def _wrap_cg(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            user_callback = kwargs.pop("callback", None)
            with self.span("linear.cg") as rec:

                def count(xk):
                    rec[COUNT] += 1
                    if user_callback is not None:
                        user_callback(xk)

                return fn(*args, callback=count, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        self.absent = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def subtree_ids(spans, roots):
    """Ids of the given root spans and every span below them."""
    keep = set(roots)
    # parents are always recorded before their children
    for i, rec in enumerate(spans):
        if rec[PARENT] in keep:
            keep.add(i)
    return sorted(keep)


def self_times(spans, ids):
    """Duration minus the time covered by direct children, per span id."""
    out = {i: spans[i][END] - spans[i][START] for i in ids}
    for i in ids:
        parent = spans[i][PARENT]
        if parent in out:
            out[parent] -= spans[i][END] - spans[i][START]
    return out


def write_spans(path, spans):
    """Write spans as CSV: id, parent, name, start_s, end_s, count."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,count\n")
        for i, (name, start, end, parent, count) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f},{count}\n")
