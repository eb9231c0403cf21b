"""In-memory spans and the per-layer metrics derived from them.

A span records one public call made while replaying an op: name, start,
end, parent span and op id, plus work counts (entries, samples, pairs,
positions, bytes). Spans named ``op`` are the roots; everything else is a
direct child of one. A probe span is an extra call made only to split a
parent call's time (the ``distance_matrix`` probe before each
``si_matrix``); it is not part of the op's work.
"""

import contextlib
import statistics
import time


class Tracer:
    """Call hook for the replay: every call becomes a span."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, probe=False, **attrs):
        rec = {"name": name, "op": self.op, "parent": self._stack[-1] if self._stack else None, "probe": probe, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name, attrs, fn, *args, **kwargs):
        with self.span(name, **attrs):
            return fn(*args, **kwargs)

    def probe(self, name, attrs, fn, *args, **kwargs):
        with self.span(name, probe=True, **attrs):
            fn(*args, **kwargs)


def median_replay(spans):
    """One replay per op, each call at its median duration over the replays.

    An op's replays make the same calls in the same order, so the k-th
    child of every replay of an op is the same call.
    """
    replays = {}
    for i, s in enumerate(spans):
        if s["name"] == "op":
            replays.setdefault(s["op"], []).append([s])
        elif s["parent"] is not None:
            replays[spans[s["parent"]]["op"]][-1].append(s)
    out = []
    for runs in replays.values():
        root = len(out)
        for k, calls in enumerate(zip(*runs)):
            dur = statistics.median(c["end"] - c["start"] for c in calls)
            out.append({**calls[0], "start": 0, "end": dur, "parent": None if k == 0 else root})
    return out


def ms(span):
    return (span["end"] - span["start"]) / 1e6


class Totals:
    """Calls, milliseconds and summed work counts per span name."""

    def __init__(self, spans):
        self.calls, self.ms, self.work = {}, {}, {}
        for s in spans:
            if s["name"] == "op" or s["probe"]:
                continue
            name = s["name"]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.ms[name] = self.ms.get(name, 0.0) + ms(s)
            for key in ("entries", "samples", "pairs", "positions", "bytes_read", "bytes_written"):
                self.work[(name, key)] = self.work.get((name, key), 0) + s.get(key, 0)

    def names(self, prefix):
        return [n for n in self.calls if n == prefix or n.startswith(prefix + ".")]

    def sum_ms(self, *names):
        return sum(self.ms.get(n, 0.0) for n in names)

    def sum_calls(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def sum_work(self, key, *names):
        return sum(self.work.get((n, key), 0) for n in names)


def per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans, untraced_ms, orchestrated):
    """Per-layer metrics from one replay per op (see ``median_replay``).

    ``untraced_ms`` maps op id to the op's untraced time. ``orchestrated``
    says the op is an ``experiments`` call whose own work the replay cannot
    call on its own (scaling_sweep); ``experiments.self_ms`` is then each
    op's untraced time minus the replayed child calls, and 0 otherwise.
    """
    t = Totals(spans)
    roots = {i: s for i, s in enumerate(spans) if s["name"] == "op"}
    children = {i: 0.0 for i in roots}
    probes = {i: 0.0 for i in roots}
    for s in spans:
        if s["parent"] in roots:
            (probes if s["probe"] else children)[s["parent"]] += ms(s)
    total = sum(untraced_ms.values())
    unsplit = sum(untraced_ms[roots[i]["op"]] - children[i] for i in roots)
    traced = sum(ms(roots[i]) - probes[i] for i in roots)
    probe_ms = sum(probes.values())

    m = {}
    geo = t.names("geometry")
    m["geometry.calls"] = (t.sum_calls(*geo), "count")
    m["geometry.self_ms"] = (t.sum_ms(*geo), "ms")
    m["geometry.us_per_position"] = (per(t.sum_ms(*geo) * 1e3, t.sum_work("positions", *geo)), "us")

    si, dist = "si_model.si_matrix", "si_model.distance_matrix"
    structure = ("si_model.sign_pattern", "si_model.is_toeplitz")
    si_self = t.sum_ms(si) - probe_ms
    m["si_model.self_ms"] = (t.sum_ms(si, dist, *structure), "ms")
    m["si_model.si_matrix.calls"] = (t.sum_calls(si), "count")
    m["si_model.si_matrix.self_ms"] = (si_self, "ms")
    m["si_model.si_matrix.share"] = (per(si_self, total), "ratio")
    m["si_model.ns_per_entry"] = (per(si_self * 1e6, t.sum_work("entries", si)), "ns")
    m["si_model.distance_matrix.self_ms"] = (probe_ms + t.sum_ms(dist), "ms")
    m["si_model.structure.self_ms"] = (t.sum_ms(*structure), "ms")
    m["si_model.structure.ns_per_entry"] = (per(t.sum_ms(*structure) * 1e6, t.sum_work("entries", *structure)), "ns")

    m["spectral.self_ms"] = (t.sum_ms(*t.names("spectral")), "ms")
    for name in ("spectral.spectral_norm", "spectral.svd_spectrum", "coarray.sum_coarray"):
        m[name + ".calls"] = (t.sum_calls(name), "count")
        m[name + ".self_ms"] = (t.sum_ms(name), "ms")
        m[name + ".share"] = (per(t.sum_ms(name), total), "ratio")
    m["coarray.self_ms"] = (t.sum_ms(*t.names("coarray")), "ms")
    m["coarray.ns_per_pair"] = (per(t.sum_ms("coarray.sum_coarray") * 1e6, t.sum_work("pairs", "coarray.sum_coarray")), "ns")

    bp, lobes = "beampattern.beampattern", ("beampattern.main_lobe_width", "beampattern.grating_lobes")
    m["beampattern.self_ms"] = (t.sum_ms(*t.names("beampattern")), "ms")
    m["beampattern.beampattern.self_ms"] = (t.sum_ms(bp), "ms")
    m["beampattern.beampattern.share"] = (per(t.sum_ms(bp), total), "ratio")
    m["beampattern.ns_per_sample"] = (per(t.sum_ms(bp) * 1e6, t.sum_work("samples", bp)), "ns")
    m["beampattern.lobes.self_ms"] = (t.sum_ms(*lobes), "ms")

    m["experiments.self_ms"] = (unsplit if orchestrated else 0.0, "ms")
    m["cli.dispatch.self_ms"] = (t.sum_ms("cli.dispatch"), "ms")

    io = t.names("io")
    written, read = t.sum_work("bytes_written", *io), t.sum_work("bytes_read", *io)
    m["io.self_ms"] = (t.sum_ms(*io), "ms")
    m["io.bytes_written"] = (written, "B")
    m["io.bytes_read"] = (read, "B")
    m["io.mb_per_s"] = (per((written + read) / 1e6, t.sum_ms(*io) / 1e3), "MB/s")

    m["trace.overhead_ratio"] = (per(traced, total), "ratio")
    m["trace.untraced_ms"] = (total, "ms")
    return m
