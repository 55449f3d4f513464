"""A reference trace equivalence: the earlier definition, which builds both
bounded trace sets whole and compares them.  Kept as an oracle for the
pair search of `routedmpst.analysis.check_trace_equivalence`.  Also the
prefix-closure law of a `routedmpst.analysis.TraceSet`."""

from routedmpst.analysis import config_traces, global_traces


def trace_difference(g, depth):
    """None when the global and configuration trace sets of `g` agree up to
    `depth`; else the least trace in their symmetric difference (shortest,
    then least by `sort_key`) and the side it lies on."""
    gset = global_traces(g, depth).traces
    cset = config_traces(g, depth).traces
    if gset == cset:
        return None
    witness = min(gset ^ cset, key=lambda tr: (len(tr), tuple(a.sort_key() for a in tr)))
    return witness, "global-only" if witness in gset else "configuration-only"


def is_prefix_closed(trace_set):
    """Every trace's prefix one label shorter is in the set too."""
    return all(trace[:-1] in trace_set.traces for trace in trace_set.traces if trace)
