"""One workload run in a fresh process; started by run.py, one per workload.

Reads a job as JSON on stdin::

    {"workload": ..., "seed": ..., "golden": {...}, "seconds": ..., "trace": 0 or 1,
     "spans_path": ...}

and prints one JSON result on stdout.  The k-th call of each kind (setup,
a command, a layer sweep) reads variant k of the seed's input text.  The
program is imported from the checkout's ``src/``, never from an installed
copy.  Every CLI command runs in this process through ``mptutte.cli.main``
with stdin, stdout and stderr swapped for in-memory buffers; one command
runs at a time (a closed loop with one caller).

``trace`` 0 measures the end-to-end metrics.  ``trace`` 1 runs each command
alternately untraced and inside a span, to measure the tracing overhead,
then repeats a sweep that calls each layer's public functions in turn, one
span per call, for the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from commands import COMMANDS, verify
from spans import Tracer, descendants, duration, layer, self_times
from speed import Clock

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_SHARE_S = 0.5
COMMAND_SHARE_S = 0.6
LAYERS = ("cli", "graphic", "matroid", "perspective", "activities", "compatible",
          "bijection", "tutte", "polynomial", "setcore")


def load_program():
    """Import mptutte from the checkout's src/ and return the modules used."""
    if not (SRC / "mptutte" / "cli.py").is_file():
        sys.exit(f"worker: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import mptutte
    from mptutte import cli

    if Path(mptutte.__file__).resolve().parent != SRC / "mptutte":
        sys.exit(f"worker: imported mptutte from {mptutte.__file__}, not from {SRC}")
    return mptutte, cli


def run_cli(cli, argv, text, span):
    """Run one command; returns (start, end, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                with span:
                    code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # a traceback is a failed command, not a dead run
                code = None
                traceback.print_exc(file=err)
            end = perf_counter()
    finally:
        sys.stdin = saved_stdin
    return start, end, code, out.getvalue(), err.getvalue()


class Tally:
    """Operations attempted (set-ups, commands, layer sweeps) and the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, name, reason, err=""):
        """Count one operation; `reason` is None when its result was right."""
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{name}: {reason}" + (f" ({err.strip()[-200:]})" if err.strip() else ""))

    def command(self, metric, code, out, err, golden):
        self.record(metric, verify(metric, code, out, golden), err)

    def result(self, metrics, **extra):
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics,
                "failures": self.failures[:5], **extra}


class Inputs:
    """Input texts of one workload and seed, by variant; each made once."""

    def __init__(self, job):
        self.workload, self.seed = job["workload"], job["seed"]
        self._texts = {}
        self.used = {}

    def next(self, key: str) -> str:
        """Text for the next call of kind `key`: variant 0, 1, 2, ..."""
        variant = self.used.get(key, 0)
        self.used[key] = variant + 1
        if variant not in self._texts:
            self._texts[variant] = workloads.generate(self.workload, self.seed, variant)
        return self._texts[variant]


def setup_counts(p):
    return (p.ground.size, len(p.matroid.bases), len(p.quotient.bases))


def repeat(seconds, fn):
    """Call fn until `seconds` have passed, at least once."""
    end = perf_counter() + seconds
    fn()
    while perf_counter() < end:
        fn()


def measure(cli, job):
    """Untraced run: passes over setup and every command until time is up.

    Within a pass each command repeats for COMMAND_SHARE_S, so quick
    commands get many samples and slow ones at least one; no pass starts
    when it would end more than half a pass after the deadline.  Metrics are
    medians of speed-corrected times (speed.py); the medians of the times
    less calibration slices are returned beside them as wall-clock times.
    """
    golden = job["golden"]
    inputs = Inputs(job)
    want = (golden["n"], golden["bases_m"], golden["bases_mp"])
    tally = Tally()
    clock = Clock()

    def setup():
        text = inputs.next("setup_s")
        start = perf_counter()
        p = cli.document_perspective(cli.parse_input(text))
        clock.record("setup_s", start, perf_counter())
        got = setup_counts(p)
        tally.record("setup_s", None if got == want else f"counts {got}, expected {want}")

    def command(metric, argv):
        start, end, code, out, err = run_cli(cli, argv, inputs.next(metric),
                                             contextlib.nullcontext())
        clock.record(metric, start, end)
        tally.command(metric, code, out, err, golden)

    start = perf_counter()
    passes = 0
    with clock:
        while True:
            repeat(SETUP_SHARE_S, setup)
            for metric, argv in COMMANDS:
                repeat(COMMAND_SHARE_S, lambda: command(metric, argv))
            passes += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / passes / 2 >= job["seconds"]:
                break
    samples = clock.samples()
    metrics = {name: {"value": statistics.median(s for _, s in values), "unit": "s"}
               for name, values in samples.items()}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    return tally.result(
        metrics, passes=passes,
        samples={name: len(values) for name, values in samples.items()},
        wall={name: statistics.median(r for r, _ in values) for name, values in samples.items()},
    )


def layer_sweep(mp, cli, t, text, golden):
    """Call each layer's public functions once, a span around each call.

    Returns the exact counts of the objects built, and the reasons any
    result disagrees with the golden answer.
    """
    with t.span("cli.parse_input"):
        doc = cli.parse_input(text)
    ground = doc.ground
    built = []
    graph = None
    for stanza in doc.stanzas:
        if stanza.kind == "graph":
            vertices = tuple(dict.fromkeys(x for _, u, v in stanza.payload for x in (u, v)))
            graph = mp.Multigraph(vertices=vertices, edges=stanza.payload)
            with t.span("graphic.cycle_matroid"):
                built.append(mp.cycle_matroid(graph, ground))
        elif stanza.kind == "circuits":
            with t.span("matroid.from_circuits"):
                built.append(mp.Matroid.from_circuits(ground, stanza.payload))
        else:
            with t.span("matroid.from_bases"):
                built.append(mp.Matroid.from_bases(ground, stanza.payload))
    if doc.identify_classes is not None:
        merged = mp.identify_vertices(graph, doc.identify_classes)
        with t.span("graphic.cycle_matroid"):
            built.append(mp.cycle_matroid(merged, ground))
        # cycle_matroid ends in from_circuits; time that step on its own
        for m in built:
            with t.span("matroid.from_circuits"):
                mp.Matroid.from_circuits(ground, m.circuits)
    # circuits derived from the bases, on fresh objects whose cache is cold;
    # the fresh objects then carry warm circuits into the perspective check
    fresh = []
    for m in built:
        f = mp.Matroid(ground, m.bases, validate=False)
        with t.span("matroid.circuits"):
            f.circuits
        fresh.append(f)
    m, mq = fresh
    with t.span("perspective.validate"):
        p = mp.Perspective(m, mq)

    with t.span("setcore.subsets"):
        for _ in ground.subsets():
            pass
    with t.span("matroid.rank_sweep", matroid="M"):
        rank_m = [m.rank(s) for s in ground.subsets()]
    with t.span("matroid.rank_sweep", matroid="M'"):
        rank_q = [mq.rank(s) for s in ground.subsets()]
    with t.span("matroid.independent_sweep"):
        for s in ground.subsets():
            m.is_independent(s)

    with t.span("perspective.valid_b"):
        valid = p.independent_spanning_sets()
    with t.span("activities.internal"):
        for b in valid:
            mp.internally_active(mq, b)
    with t.span("activities.external"):
        for b in valid:
            mp.externally_active(m, b)
    with t.span("compatible.family"):
        family = mp.compatible_family(p)
    with t.span("bijection.forward"):
        images = [mp.forward(p, b) for b in valid]
    with t.span("bijection.backward"):
        preimages = [mp.backward(p, x) for x in family]
    with t.span("bijection.table"):
        rows = mp.bijection_table(p)

    with t.span("tutte.activities"):
        t_act = mp.tutte_activities(p)
    with t.span("tutte.compatible"):
        t_comp = mp.tutte_compatible(p)
    with t.span("tutte.rank_generating"):
        t_rank = mp.tutte_rank_generating(p)

    # the corank-nullity terms, found from the rank sweeps outside any span
    r_m, r_q = m.rank(), mq.rank()
    x_pow, y_pow = [mp.ONE], [mp.ONE]
    for _ in range(ground.size):
        x_pow.append(x_pow[-1] * (mp.X - 1))
        y_pow.append(y_pow[-1] * (mp.Y - 1))
    term_of = {}
    keys = []
    for a in ground.subsets():
        key = (r_q - rank_q[a], a.bit_count() - rank_m[a], r_m - r_q - rank_m[a] + rank_q[a])
        if key not in term_of:
            i, j, k = key
            term_of[key] = x_pow[i] * y_pow[j] * mp.Poly.monomial(0, 0, k)
        keys.append(key)
    with t.span("polynomial.accumulate"):
        total = mp.Poly()
        for key in keys:
            total = total + term_of[key]
    with t.span("polynomial.str"):
        text_poly = str(t_act)

    problems = []
    for name, poly in (("activities", t_act), ("compatible", t_comp),
                       ("rank-gen", t_rank), ("accumulate", total)):
        if str(poly) != golden["polynomial"]:
            problems.append(f"{name} polynomial differs from the golden one")
    if text_poly != golden["polynomial"]:
        problems.append("polynomial string differs from the golden one")
    if sorted(images) != sorted(family) or sorted(preimages) != sorted(valid):
        problems.append("forward/backward do not map valid B onto D")
    if len(rows) != len(valid):
        problems.append("table rows differ from the valid sets")

    full = 1 << ground.size
    counts = {
        "matroid.n": ground.size,
        "matroid.bases_m": len(m.bases),
        "matroid.bases_mp": len(mq.bases),
        "matroid.circuits_m": len(m.circuits),
        "matroid.circuits_mp": len(mq.circuits),
        "perspective.valid_b": len(valid),
        "compatible.family_d": len(family),
        "polynomial.terms": len(t_act.terms()),
        "perspective.valid_b_share": len(valid) / full,
        "compatible.family_share": len(family) / full,
    }
    for name, value in counts.items():
        key = name.split(".", 1)[1]
        if key in golden and value != golden[key]:
            problems.append(f"{name} = {value}, expected {golden[key]}")
    return counts, problems


# per-layer time metric -> the span name it sums within one sweep
TIMED_SPANS = (
    "cli.parse_input", "graphic.cycle_matroid", "matroid.from_circuits", "matroid.from_bases",
    "matroid.circuits", "matroid.rank_sweep", "matroid.independent_sweep",
    "perspective.validate", "perspective.valid_b", "activities.internal",
    "activities.external", "compatible.family", "bijection.forward", "bijection.backward",
    "bijection.table", "tutte.activities", "tutte.compatible", "tutte.rank_generating",
    "polynomial.accumulate", "polynomial.str", "setcore.subsets",
)


def trace(mp, cli, job):
    """Traced run: tracing overhead per command, then layer sweeps until time is up."""
    golden = job["golden"]
    inputs = Inputs(job)
    tally = Tally()
    tracer = Tracer(job["workload"])
    run_start = perf_counter()

    # untraced and traced runs of each command alternate, so both see the
    # same machine; their medians differ by the tracing overhead
    untraced = {metric: [] for metric, _ in COMMANDS}
    traced = {metric: [] for metric, _ in COMMANDS}
    with tracer.span("bench.commands"):
        for metric, argv in COMMANDS:
            def pair(metric=metric, argv=argv):
                text = inputs.next(metric)
                for times, span in ((untraced, contextlib.nullcontext()),
                                    (traced, tracer.span("cli.main", command=metric))):
                    start, end, code, out, err = run_cli(cli, argv, text, span)
                    times[metric].append(end - start)
                    tally.command(metric, code, out, err, golden)
            repeat(COMMAND_SHARE_S, pair)
    untraced = {m: statistics.median(v) for m, v in untraced.items()}
    traced = {m: statistics.median(v) for m, v in traced.items()}

    # per-layer times are speed-corrected per sweep, like the end-to-end ones
    clock = Clock()
    sweeps = []
    counts = None
    with clock:
        while True:
            with tracer.span("bench.sweep", index=len(sweeps)) as root:
                counts, problems = layer_sweep(mp, cli, tracer, inputs.next("sweep"), golden)
            tally.record("layer sweep", "; ".join(problems) if problems else None)
            sweeps.append(root["id"])
            if perf_counter() - run_start + duration(root) / 2 >= job["seconds"]:
                break

    own = self_times(tracer.spans)
    # a sweep's factor scales its spans, calibration slices included, to the
    # corrected time of the whole sweep
    factors = [clock.corrected(tracer.spans[i]["start"], tracer.spans[i]["end"])[1]
               / duration(tracer.spans[i]) for i in sweeps]
    per_sweep = []
    for root_id, speed_factor in zip(sweeps, factors):
        spans = descendants(tracer.spans, root_id)
        row = {name + "_s": 0.0 for name in TIMED_SPANS}
        row.update({f"self.{name}_s": 0.0 for name in LAYERS + ("bench",)})
        for s in spans:
            if s["name"] in TIMED_SPANS:
                row[s["name"] + "_s"] += duration(s)
            row[f"self.{layer(s['name'])}_s"] += own[s["id"]]
        per_sweep.append({name: value * speed_factor for name, value in row.items()})
    metrics = {name: {"value": statistics.median(r[name] for r in per_sweep), "unit": "s"}
               for name in per_sweep[0]}
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "fraction" if name.endswith("_share") else "count"}
    overhead = sum(traced.values()) - sum(untraced.values())
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": overhead / sum(untraced.values()), "unit": "fraction"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}

    summary = {
        "sweeps": len(sweeps),
        "per_layer": {k: v["value"] for k, v in metrics.items()},
        "commands": {m: {"untraced_s": untraced[m], "traced_s": traced[m],
                         "overhead_s": traced[m] - untraced[m]} for m, _ in COMMANDS},
    }
    tracer.write(Path(job["spans_path"]), summary)
    return tally.result(metrics, passes=len(sweeps), samples={"sweep": len(sweeps)})


def main():
    job = json.load(sys.stdin)
    mp, cli = load_program()
    result = trace(mp, cli, job) if job["trace"] else measure(cli, job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
