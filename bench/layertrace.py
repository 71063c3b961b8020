"""Outside-in tracing: timing wrappers around the calls between the
package's modules, installed from the benchmark's own files.

Nothing under ``src/`` knows about these wrappers.  Each wrapper opens a
span (name, parent, start, end, self time) while the wrapped call runs;
self time is the span's duration minus the time its child spans cover.
Work the tracer itself does to count sizes runs inside a ``trace.measure``
span, so it is charged to the tracer and never to a layer.

Boundaries (module attribute patched -> span name):

    congruence.check_congruence        -> congruence.check_congruence
    congruence.phi_valuation           -> exactalg.phi_valuation
    congruence.oracle_check            -> congruence.oracle_check
    congruence.theorem_sum             -> hypergeom.theorem_sum
    cli.<identity evaluators>          -> hypergeom.<name>
    hypergeom.qsum                     -> qobjects.qsum
    exactalg.Poly.divmod_monic         -> exactalg.divmod_monic

A boundary whose attribute no longer exists stops the traced run
(``MissingBoundary``), and so does a layer the workload must cross that
saw no call (``require_calls``): a renamed or bypassed boundary would
otherwise read as zero and move its time into ``check.self_s``.
"""

from __future__ import annotations

import contextlib
import json
import time

IDENTITY_EVALUATORS = ("andrews_lhs", "andrews_rhs", "watson_pair",
                       "gasper_terminating_sum", "multi_km_sum")

# per-check size columns, in table order
SIZE_COLUMNS = ("terms", "binomial_mults", "num_degree", "num_coeff_bits",
                "divmod_calls", "divmod_useful")


class MissingBoundary(SystemExit):
    """A boundary to wrap does not exist, or a required layer saw no call."""


class Tracer:
    """Span recorder.  Spans are kept in memory as lists
    ``[check, name, parent, start, end, self_s, extra]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.check = ""
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0, None]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append([self.check, frame[0],
                           parent[0] if parent else None,
                           frame[1], end, dur - frame[2], frame[3]])

    @contextlib.contextmanager
    def span(self, name: str, check: str | None = None):
        """A span opened by the benchmark loop itself (one per check)."""
        if check is not None:
            self.check = check
        frame = self._enter(name)
        try:
            yield frame
        finally:
            self._exit(frame)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        real = getattr(owner, attr, None)
        if real is None:
            raise MissingBoundary(f"layertrace: no boundary {owner.__name__}.{attr} to wrap")
        self._patches.append((owner, attr, real))
        setattr(owner, attr, wrapper_factory(real))

    def _timed(self, name: str):
        tracer = self

        def factory(real):
            def traced(*args, **kwargs):
                frame = tracer._enter(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    tracer._exit(frame)
            return traced
        return factory

    def _divmod(self, real):
        tracer = self

        def traced(poly, div):
            frame = tracer._enter("exactalg.divmod_monic")
            try:
                quot, rem = real(poly, div)
            finally:
                tracer._exit(frame)
            tracer.spans[-1][6] = int(not rem.coeffs)
            return quot, rem
        return traced

    def _qsum(self, real):
        tracer = self

        def traced(products):
            # Terms are often a generator whose body is hypergeom code:
            # draining it here charges term construction to the caller.
            terms = list(products)
            frame = tracer._enter("qobjects.qsum")
            try:
                out = real(terms)
            finally:
                tracer._exit(frame)
            span = tracer.spans[-1]
            with tracer.span("trace.measure"):
                span[6] = _qsum_sizes(terms, out)
            return out
        return traced

    def install(self, congruence, hypergeom, exactalg, cli=None) -> None:
        self._patch(exactalg.Poly, "divmod_monic", self._divmod)
        self._patch(hypergeom, "qsum", self._qsum)
        self._patch(congruence, "check_congruence",
                    self._timed("congruence.check_congruence"))
        self._patch(congruence, "phi_valuation",
                    self._timed("exactalg.phi_valuation"))
        self._patch(congruence, "oracle_check",
                    self._timed("congruence.oracle_check"))
        self._patch(congruence, "theorem_sum",
                    self._timed("hypergeom.theorem_sum"))
        if cli is not None:
            for name in IDENTITY_EVALUATORS:
                self._patch(cli, name, self._timed(f"hypergeom.{name}"))

    def uninstall(self) -> None:
        for owner, attr, real in reversed(self._patches):
            setattr(owner, attr, real)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, congruence, hypergeom, exactalg, cli=None):
        self.install(congruence, hypergeom, exactalg, cli)
        try:
            yield self
        finally:
            self.uninstall()


def _qsum_sizes(terms, out) -> dict:
    """Sizes of one qsum call, computed from its inputs and result.

    Binomial multiplications: qsum expands every nonzero term over the
    common denominator, whose (q^a - 1) multiplicities are the largest
    negative multiplicities among the terms, and expands that denominator
    once; each unit of multiplicity is one multiplication by (q^a - 1).
    """
    live = [t for t in terms if not t.is_zero]
    den: dict[int, int] = {}
    own = 0
    for t in live:
        for a, m in t.factors.items():
            own += m
            if m < 0 and -m > den.get(a, 0):
                den[a] = -m
    mults = (len(live) + 1) * sum(den.values()) + own if live else 0
    coeffs = out.num.coeffs
    return {
        "terms": len(terms),
        "binomial_mults": mults,
        "num_degree": len(coeffs) - 1,
        "num_coeff_bits": max((abs(c) for c in coeffs), default=0).bit_length(),
    }


# ---------------------------------------------------------------------------
# aggregation


def layer_totals(spans: list[list]) -> dict:
    """Per span name: calls, total seconds, self seconds."""
    out: dict[str, dict] = {}
    for _check, name, _parent, start, end, self_s, _extra in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    return out


def check_sizes(spans: list[list]) -> dict[str, dict]:
    """Per check: the size columns plus the check's own traced seconds."""
    table: dict[str, dict] = {}
    for check, name, parent, start, end, _self_s, extra in spans:
        row = table.setdefault(check, dict.fromkeys(SIZE_COLUMNS, 0) | {"seconds": 0.0})
        if parent is None:
            row["seconds"] += end - start
        if name == "exactalg.divmod_monic":
            row["divmod_calls"] += 1
            row["divmod_useful"] += extra or 0
        elif name == "qobjects.qsum" and extra:
            row["terms"] += extra["terms"]
            row["binomial_mults"] += extra["binomial_mults"]
            row["num_degree"] = max(row["num_degree"], extra["num_degree"])
            row["num_coeff_bits"] = max(row["num_coeff_bits"], extra["num_coeff_bits"])
    return table


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics that come from spans alone."""
    tot = layer_totals(spans)

    def self_s(prefix: str) -> float:
        return sum(r["self_s"] for n, r in tot.items() if n.startswith(prefix))

    def get(name: str, key: str) -> float:
        return tot.get(name, {}).get(key, 0)

    sizes = check_sizes(spans).values()
    calls = get("exactalg.divmod_monic", "calls")
    useful = sum(r["divmod_useful"] for r in sizes)
    roots = [s for s in spans if s[2] is None]
    return {
        "exactalg.divmod_s": get("exactalg.divmod_monic", "self_s"),
        "exactalg.divmod_calls": calls,
        "exactalg.divmod_useful_ratio": useful / calls if calls else 0.0,
        "exactalg.phi_valuation_s": get("exactalg.phi_valuation", "self_s"),
        "congruence.check_s": get("congruence.check_congruence", "self_s"),
        "congruence.oracle_s": get("congruence.oracle_check", "self_s"),
        "qobjects.qsum_s": get("qobjects.qsum", "total_s"),
        "qobjects.qsum_self_s": get("qobjects.qsum", "self_s"),
        "qobjects.qsum_calls": get("qobjects.qsum", "calls"),
        "qobjects.binomial_mults": sum(r["binomial_mults"] for r in sizes),
        "qobjects.num_degree_max": max((r["num_degree"] for r in sizes), default=0),
        "qobjects.num_coeff_bits_max": max((r["num_coeff_bits"] for r in sizes), default=0),
        "hypergeom.term_build_s": self_s("hypergeom."),
        "hypergeom.terms": sum(r["terms"] for r in sizes),
        "check.self_s": sum(s[5] for s in roots),
        "check.total_s": sum(s[4] - s[3] for s in roots),
        "trace.measure_s": get("trace.measure", "self_s"),
    }


def require_calls(spans: list[list], names) -> None:
    """Stop the traced run unless every span name in ``names`` was seen."""
    seen = {s[1] for s in spans}
    absent = [n for n in names if n not in seen]
    if absent:
        raise MissingBoundary("layertrace: no calls through " + ", ".join(absent))


def write_spans(path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def size_table_lines(table: dict[str, dict]) -> list[str]:
    """Tab-separated size table, heaviest check first."""
    rows = sorted(table.items(), key=lambda kv: -kv[1]["seconds"])
    head = "\t".join(("check", "seconds") + SIZE_COLUMNS + ("divmod_useful_ratio",))
    lines = [head]
    for check, r in rows:
        ratio = r["divmod_useful"] / r["divmod_calls"] if r["divmod_calls"] else 0.0
        lines.append("\t".join([check, f"{r['seconds']:.4f}"]
                               + [str(r[c]) for c in SIZE_COLUMNS]
                               + [f"{ratio:.4f}"]))
    return lines
