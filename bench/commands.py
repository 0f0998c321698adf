"""The CLI commands each workload runs, and how their outputs are verified.

Outputs are compared with the workload's golden answer (``golden.json``):
the three ``tutte`` strings must equal the golden polynomial exactly; ``table``
must have T(1,1,1) data rows and ``compatible`` T(1,1,1) lines, where
T(1,1,1) = |valid B| = |D|; ``check`` must exit 0 and print
``all checks passed``.  Tables and families are compared by count because
their text depends on the seeded labels and order.
"""

# (end-to-end metric, argv given to mptutte.cli.main)
COMMANDS = (
    ("tutte_activities_s", ["tutte", "--method", "activities"]),
    ("tutte_compatible_s", ["tutte", "--method", "compatible"]),
    ("tutte_rank_gen_s", ["tutte", "--method", "rank-gen"]),
    ("table_s", ["table"]),
    ("compatible_s", ["compatible"]),
    ("check_s", ["check", "--seed", "0"]),
)


def verify(metric: str, code, out: str, golden: dict):
    """None when the command's result is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if metric.startswith("tutte_"):
        got = out.strip()
        if got != golden["polynomial"]:
            return f"polynomial {got[:60]!r} differs from the golden one"
    elif metric == "table_s":
        if not lines or lines[0] != "B\tInt\tExt\tX\tTerm":
            return "missing table header"
        if len(lines) - 1 != golden["valid_b"]:
            return f"{len(lines) - 1} table rows, expected {golden['valid_b']}"
    elif metric == "compatible_s":
        if len(lines) != golden["family_d"]:
            return f"{len(lines)} compatible sets, expected {golden['family_d']}"
    elif metric == "check_s":
        if not lines or lines[-1] != "all checks passed":
            return "check did not report 'all checks passed'"
    else:
        raise KeyError(metric)
    return None
