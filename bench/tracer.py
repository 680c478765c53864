"""Layer tracing from outside the program.

``Tracer`` wraps public functions of the ``lipeq`` modules at every
module attribute that holds them (``certify`` imports the ``tstar``
engines and ``decide`` by name, so patching the home module alone would
miss those calls), and a few hot methods on their classes.  Each wrapped
call is attributed to its layer, the module that defines it.

- Calls at stage boundaries are kept as spans (name, op, start, end,
  parent) in memory and written out by ``write_spans``.
- Hot leaf calls (ratio arithmetic, ``affine``, the cylinder-set algebra,
  formatting) are only aggregated into counts and busy time.
- A layer's self time is the time inside its calls minus the time inside
  the wrapped calls they make, so each interval is counted once.

Recording is on only while ``recording()`` is active, so checks that call
the library outside the timed region leave the figures alone.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = ("exactnum", "ifs", "cylsets", "patches", "decide", "tstar",
          "certify", "specfile")

# Methods patched on their class: (module, class, attribute).
METHODS = (
    ("exactnum", "ExactRatio", "__mul__"),
    ("exactnum", "ExactRatio", "__truediv__"),
    ("exactnum", "ExactRatio", "pow_int"),
    ("exactnum", "ExactRatio", "__eq__"),
    ("exactnum", "ExactRatio", "value"),
    ("exactnum", "ExactRatio", "interval"),
    ("ifs", "IfsSpec", "__init__"),
    ("ifs", "IfsSpec", "affine"),
    ("ifs", "IfsSpec", "ratio_word"),
    ("ifs", "IfsSpec", "cyl_lo"),
    ("ifs", "IfsSpec", "cyl_hi"),
    ("ifs", "IfsSpec", "cyl_interval"),
    ("ifs", "IfsSpec", "blocks"),
)

# Functions outside the leaf layers that run often enough to aggregate.
HOT = {"certify.rules_affine", "certify.rule_affine", "certify.apply_rules",
       "certify.compose_rules", "decide.verify_witness",
       "specfile.format_value", "specfile.format_ratio",
       "specfile.parse_ratio", "specfile.parse_value",
       "specfile.canonical_json", "specfile.doc_digest"}
LEAF_LAYERS = {"exactnum", "ifs", "cylsets"}

# Counters shared by several wrapped functions.
CALL_GROUPS = {"exactnum.ExactRatio.__mul__": "exactnum.ratio_ops",
               "exactnum.ExactRatio.__truediv__": "exactnum.ratio_ops",
               "exactnum.ExactRatio.pow_int": "exactnum.ratio_ops"}

ENGINES = {"tstar.ldiff", "tstar.rdiff", "tstar.trace",
           "tstar.hole_diff_left", "tstar.hole_diff_right",
           "tstar.block_decompose"}


class Tracer:
    """Patches the lipeq modules in ``sys.modules`` on ``install``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.op = None
        self.stack = []          # frames: [child_time, span_index]
        self.spans = []          # [name, op, start, end, parent]
        self.self_time = {}      # layer -> seconds
        self.calls = {}          # counter -> count
        self.busy = {}           # qualified name -> seconds, outermost calls
        self.counts = {}         # work counters from arguments and results
        self.depth = {}          # qualified name -> active call depth
        self.pq_multiple = None
        self._undo = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def recording(self, op=None):
        """Record the calls made inside the block, as a span named 'op'."""
        self.on = True
        self.op = op
        frame = [0.0, len(self.spans)]
        self.spans.append(["op", op, self.clock(), None, None])
        self.stack.append(frame)
        t0 = self.spans[frame[1]][2]
        try:
            yield
        finally:
            t1 = self.clock()
            self.stack.pop()
            self.spans[frame[1]][3] = t1
            self._add_self("bench", t1 - t0 - frame[0])
            self.on = False

    def _add_self(self, layer, dt):
        self.self_time[layer] = self.self_time.get(layer, 0.0) + dt

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, qual, layer, fn, span, hook=None):
        """A wrapper of ``fn`` that records into this tracer."""
        counter = CALL_GROUPS.get(qual, qual)
        clock = self.clock
        stack = self.stack
        spans = self.spans
        calls = self.calls
        depth = self.depth
        depth[qual] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            calls[counter] = calls.get(counter, 0) + 1
            depth[qual] += 1
            if span:
                parent = next((f[1] for f in reversed(stack)
                               if f[1] is not None), None)
                frame = [0.0, len(spans)]
                spans.append([qual, self.op, 0.0, None, parent])
            else:
                frame = [0.0, None]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self._add_self(layer, dur - frame[0])
                if stack:
                    stack[-1][0] += dur
                depth[qual] -= 1
                if depth[qual] == 0:
                    self.busy[qual] = self.busy.get(qual, 0.0) + dur
                if span:
                    spans[frame[1]][2] = t0
                    spans[frame[1]][3] = t1
                if hook is not None:
                    hook(self, args, result, exc)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "lipeq" or name.startswith("lipeq.")}
        replace = {}
        for layer in LAYERS:
            mod = mods.get("lipeq." + layer)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = "%s.%s" % (layer, name)
                span = layer not in LEAF_LAYERS and qual not in HOT
                replace[id(obj)] = (obj, self.wrap(qual, layer, obj, span,
                                                   HOOKS.get(qual)))
        for mod in mods.values():
            for name, val in list(vars(mod).items()):
                got = replace.get(id(val))
                if got is not None and got[0] is val:
                    setattr(mod, name, got[1])
                    self._undo.append((mod, name, val))
        for layer, cls_name, attr in METHODS:
            cls = getattr(mods["lipeq." + layer], cls_name)
            orig = cls.__dict__[attr]
            qual = "%s.%s.%s" % (layer, cls_name, attr)
            setattr(cls, attr, self.wrap(qual, layer, orig, False,
                                         HOOKS.get(qual)))
            self._undo.append((cls, attr, orig))
        return self

    def uninstall(self):
        while self._undo:
            holder, name, val = self._undo.pop()
            setattr(holder, name, val)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def write_spans(self, path):
        """Write the spans as JSON lines: name, op, start, end, parent."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# work counters read from arguments and results

def _ratio_word(tr, args, result, exc):
    tr.count("ifs.ratio_word.letters", len(args[1]))


def _words_in(name):
    def hook(tr, args, result, exc):
        if hasattr(args[1], "__len__"):
            tr.count(name, len(args[1]))
    return hook


def _disjoint_words_in(tr, args, result, exc):
    tr.count("cylsets.check_disjoint_groups.words_in",
             sum(len(g) for g in args[1]))


def _patches_out(tr, args, result, exc):
    if exc is not None or any(tr.depth.get(q) for q in PATCHES_OUT):
        return  # count only outermost partition calls
    if result and isinstance(result[0], list):
        tr.count("patches.pieces_out", sum(len(level) for level in result))
    else:
        tr.count("patches.pieces_out", len(result))


def _engine_out(tr, args, result, exc):
    if exc is None and not any(tr.depth.get(q) for q in ENGINES):
        tr.count("tstar.placements_out", len(result))


def _find_witness(tr, args, result, exc):
    if exc is None:
        tr.count("decide.find_witness." + result[1])


def _closed_form(tr, args, result, exc):
    if exc is None and result is not None:
        tr.count("decide.closed_form.hits")


def _pq_check(tr, args, result, exc):
    if exc is not None:
        tr.count("certify.pq_rejected")


def _choose_pq(tr, args, result, exc):
    if exc is None:
        tr.pq_multiple = result[0] // result[2]


def _build(tr, args, result, exc):
    if exc is None and tr.pq_multiple is not None:
        tr.count("certify.depth_retries",
                 result.p // result.p0 - tr.pq_multiple)


def _verify_cert(tr, args, result, exc):
    tr.count("certify.pieces_checked",
             sum(len(e.pieces) for e in args[1].edges.values()))


def _expand(tr, args, result, exc):
    if exc is None:
        tr.count("certify.expand_leaves", len(result))


PATCHES_OUT = ("patches.partition_S", "patches.partition_T",
               "patches.c_family", "patches.e_family")

HOOKS = {
    "ifs.IfsSpec.ratio_word": _ratio_word,
    "cylsets.canonicalize": _words_in("cylsets.canonicalize.words_in"),
    "cylsets.check_disjoint_groups": _disjoint_words_in,
    "decide.find_witness": _find_witness,
    "decide.closed_form_witnesses": _closed_form,
    "certify.check_pq_restrictions": _pq_check,
    "certify.choose_pq": _choose_pq,
    "certify.build_certificate": _build,
    "certify.verify_certificate": _verify_cert,
    "certify.expand_map": _expand,
}
HOOKS.update({q: _patches_out for q in PATCHES_OUT})
HOOKS.update({q: _engine_out for q in ENGINES})
