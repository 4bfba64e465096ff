"""Layer spans and allocation peaks, recorded from outside gpncodec.

`Tracer.install` replaces the public functions listed in `TARGETS` with
wrappers, in every gpncodec module namespace that holds them, so calls
made inside the package are caught as well as the benchmark's own.
`uninstall` puts the originals back. Nothing is wrapped unless a traced
run asks for it.

In "time" mode each call becomes one span (name, start, end, parent),
kept in flat arrays and written out by `dump`. In "alloc" mode each call
instead records the peak traced allocation above what was live when it
started; nested calls are accounted for so each span sees its own peak.
"""

import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict


def _fma_label(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return f"fma.fma_encode.{cfg.policy}"


def _count_bytes_in(tracer, idx, args, kwargs, result):
    tracer.counts["bitio.unpack_bits.bytes"] += len(args[0])


def _count_bytes_out(tracer, idx, args, kwargs, result):
    tracer.counts["bitio.pack_bits.bytes"] += len(result)


def _count_container(tracer, idx, args, kwargs, result):
    tracer.counts["bitio.container.bytes"] += len(result)


def _count_encode_round(tracer, idx, args, kwargs, result):
    bits = args[0]
    tracer.counts["multichannel.encode_round.symbols"] += len(bits) // args[1].symbol_width
    parent = tracer.parent[idx]
    rnd = tracer.round_seen[parent] = tracer.round_seen.get(parent, 0) + 1
    tracer.counts[f"multichannel.round{rnd}.input_bits"] += len(bits)
    tracer.counts[f"multichannel.round{rnd}.core_bits"] += len(result.core)


def _count_decode_round(tracer, idx, args, kwargs, result):
    width = (args[2] if len(args) > 2 else kwargs["cb"]).symbol_width
    tracer.counts["multichannel.decode_round.symbols"] += len(result) // width


def _count_chunks(tracer, idx, args, kwargs, result):
    n = args[1].chunk_width
    tracer.counts["fma.fma_encode.chunks"] += -(-len(args[0]) // n)


# (module, function, span name or labelling function, counting hook)
TARGETS = [
    ("bitio", "unpack_bits", "bitio.unpack_bits", _count_bytes_in),
    ("bitio", "pack_bits", "bitio.pack_bits", _count_bytes_out),
    ("bitio", "write_container", "bitio.write_container", _count_container),
    ("bitio", "read_container", "bitio.read_container", None),
    ("multichannel", "build_mv2_codebook", "multichannel.build_codebook", None),
    ("multichannel", "build_clone_codebook", "multichannel.build_codebook", None),
    ("multichannel", "build_binomial_codebook", "multichannel.build_codebook", None),
    ("prng", "keyed_shuffle", "prng.keyed_shuffle", None),
    ("multichannel", "encode_round", "multichannel.encode_round", _count_encode_round),
    ("multichannel", "decode_round", "multichannel.decode_round", _count_decode_round),
    ("multichannel", "transform", "multichannel.transform", None),
    ("multichannel", "inverse_transform", "multichannel.inverse_transform", None),
    ("fma", "fma_encode", _fma_label, _count_chunks),
    ("fma", "fma_decode", "fma.fma_decode", None),
    ("gpn", "evaluate", "gpn.evaluate", None),
    ("gpn", "representations", "gpn.representations", None),
    ("codec", "encode_to_container", "codec.encode_to_container", None),
    ("codec", "decode_from_container", "codec.decode_from_container", None),
]


class Tracer:
    def __init__(self, mode: str = "time"):
        self.mode = mode
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, int] = {}
        self.round_seen: dict[int, int] = {}
        self._stack: list = []
        self._patches: list = []
        if mode == "alloc" and not tracemalloc.is_tracing():
            tracemalloc.start()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gpncodec" or k.startswith("gpncodec."))]
        for module_name, attr, label, hook in TARGETS:
            orig = getattr(sys.modules[f"gpncodec.{module_name}"], attr)
            make = self._timed if self.mode == "time" else self._alloc
            wrapper = make(orig, label, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()
        self.round_seen.clear()

    def _timed(self, fn, label, hook):
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack)
        perf = time.perf_counter
        fixed = None if callable(label) else self._id(label)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else self._id(label(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return wrapper

    def _alloc(self, fn, label, hook):
        # counts come from the timed pass; this pass only records peaks
        stack, peaks = self._stack, self.peaks

        def wrapper(*args, **kwargs):
            name = label if not callable(label) else label(args, kwargs)
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            frame = [current, current]
            stack.append(frame)
            tracemalloc.reset_peak()
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                tracemalloc.reset_peak()
                peaks[name] = max(peaks.get(name, 0), top - frame[0])
            return result

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms; plus the counts."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans = {}
        for i in range(n):
            s = spans.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            s["calls"] += 1
            s["ms"] += dur[i] * 1000
            s["self_ms"] += (dur[i] - child[i]) * 1000
        return {"spans": spans, "counts": dict(self.counts), "peaks": dict(self.peaks)}

    def dump(self, path) -> None:
        """Write every span, the names and the counts to one file."""
        head = {"names": self.names, "spans": len(self.start),
                "counts": dict(self.counts), "peaks": dict(self.peaks)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path, "rb") as fh:
            head = json.loads(fh.readline())
            t = cls("load")
            t.names = head["names"]
            for arr in (t.name_id, t.parent, t.start, t.end):
                arr.fromfile(fh, head["spans"])
        t.counts.update(head["counts"])
        t.peaks.update(head["peaks"])
        return t


def merge(into: dict, other: dict) -> None:
    """Add one summary into another: spans and counts sum, peaks take the max."""
    for name, s in other["spans"].items():
        d = into["spans"].setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for key in d:
            d[key] += s[key]
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    for name, value in other["peaks"].items():
        into["peaks"][name] = max(into["peaks"].get(name, 0), value)
