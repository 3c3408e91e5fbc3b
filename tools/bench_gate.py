#!/usr/bin/env python3
"""Benchmark regression gate.

Compares a freshly collected benchmark JSON file (scripts/collect_bench.sh
output) against a committed baseline and fails when:

  * a table present in the baseline is missing from the fresh run,
  * a table's row count changed (shape drift — refresh the baseline),
  * a time-like cell regressed beyond tolerance,
  * a `micro_partition` intersection op (product / refine) reports
    a flat-vs-legacy speedup below --speedup-min, or
  * a `clean_beam` row reports a full-vs-incremental node-scoring speedup
    (ScoreFull against ScoreIncremental over one fixed node list) below
    --clean-speedup-min, or the two scorers disagree on a node, or
  * a `serve_closed_loop` row produced on capable hardware (hw >= 8)
    rejects more than --serve-reject-max percent of its requests, or its
    p99 exceeds --serve-p99-max-ms on a drivable row (clients <= 4*hw), or
  * a thread-scaling floor is violated on capable hardware: at 8+ threads
    the `ext_parallel` products-phase speedup (`products_x`) must reach
    --ext-products-speedup-min and the `clean_threads` beam speedup must
    reach --clean-threads-speedup-min — enforced only on rows whose `hw`
    column (the producing machine's hardware concurrency) is >= the row's
    thread count, since a smaller machine physically cannot scale there, or
  * a `snapshot_open` row reports a cold-compile-vs-snapshot-open speedup
    below --snapshot-speedup-min, or the snapshot-loaded session is not
    byte-identical to the cold compile, or
  * the `ext_incremental` per-update cost grows with N: incremental(ms/upd)
    at the largest N exceeds EXT_INCREMENTAL_GROWTH_MAX times its value at
    the smallest N.

Time-like columns (names containing "ms", "(s)", "seconds", or ending in
"_s") are machine-dependent, so they get a generous relative tolerance with
an absolute slack floor for sub-millisecond cells: a cell passes if
    fresh <= base * (1 + rel_tol)   OR   fresh - base <= abs_slack.
The speedup columns of `micro_partition` and `clean_beam` are same-process
ratios and therefore machine-independent; they are gated hard, with no
tolerance, as is the `ext_incremental` growth ratio. The thread-scaling floors are also same-process ratios, but they
additionally depend on physical core count, hence the hw >= threads
condition. The `identical` columns (clean tables and `ext_parallel`) assert
determinism — parallel search reproduces the serial reference byte for
byte — and must read "yes" everywhere, on every machine.

Usage:
    tools/bench_gate.py --baseline BENCH_core.json --fresh out/BENCH_core.json
    tools/bench_gate.py --self-test
"""

import argparse
import json
import re
import sys

TIME_COLUMN_RE = re.compile(r"ms|\(s\)|\bseconds\b|_s$")

# Ops in the micro_partition table whose speedup ratio is gated hard.
GATED_INTERSECTION_OPS = ("product", "refine")

# An incremental update re-checks one class histogram per affected OFD, so
# its cost must not grow with N: the largest N may cost at most this many
# times the smallest, measured in one process.
EXT_INCREMENTAL_GROWTH_MAX = 2.0


def is_time_column(name):
    return bool(TIME_COLUMN_RE.search(name))


def as_number(cell):
    """Returns the cell as float, or None for non-numeric cells like "-"."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(str(cell).rstrip("x"))
    except ValueError:
        return None


def compare_tables(baseline, fresh, rel_tol, abs_slack, speedup_min,
                   clean_speedup_min=2.0, ext_products_speedup_min=4.0,
                   clean_threads_speedup_min=3.0, serve_reject_max=1.0,
                   serve_p99_max_ms=10.0, snapshot_speedup_min=5.0):
    """Returns a list of human-readable failure strings (empty == pass)."""
    failures = []
    fresh_by_name = {t["bench"]: t for t in fresh}
    for base_table in baseline:
        name = base_table["bench"]
        if name not in fresh_by_name:
            failures.append(f"{name}: table missing from fresh run")
            continue
        fresh_table = fresh_by_name[name]
        if fresh_table["columns"] != base_table["columns"]:
            failures.append(
                f"{name}: columns changed "
                f"({base_table['columns']} -> {fresh_table['columns']}); "
                "refresh the committed baseline")
            continue
        if len(fresh_table["rows"]) != len(base_table["rows"]):
            failures.append(
                f"{name}: row count changed "
                f"({len(base_table['rows'])} -> {len(fresh_table['rows'])}); "
                "refresh the committed baseline")
            continue
        columns = base_table["columns"]
        time_cols = [i for i, c in enumerate(columns) if is_time_column(c)]
        for row_idx, (base_row, fresh_row) in enumerate(
                zip(base_table["rows"], fresh_table["rows"])):
            label = f"{name} row {row_idx} ({base_row[0]})"
            for col in time_cols:
                base_v = as_number(base_row[col])
                fresh_v = as_number(fresh_row[col])
                if base_v is None or fresh_v is None:
                    continue  # "-" cells (skipped configurations)
                if (fresh_v > base_v * (1.0 + rel_tol)
                        and fresh_v - base_v > abs_slack):
                    failures.append(
                        f"{label}: {columns[col]} regressed "
                        f"{base_v:g} -> {fresh_v:g} "
                        f"(> +{rel_tol:.0%} and > +{abs_slack:g})")
        if name == "micro_partition":
            failures.extend(
                check_micro_partition(fresh_table, speedup_min))
        if name in ("clean_beam", "clean_threads"):
            failures.extend(
                check_clean_table(fresh_table, clean_speedup_min))
        if name == "ext_parallel":
            failures.extend(check_identical_rows(fresh_table))
            failures.extend(check_scaling_floor(
                fresh_table, "products_x", ext_products_speedup_min,
                "products-phase speedup"))
        if name == "clean_threads":
            failures.extend(check_scaling_floor(
                fresh_table, "speedup", clean_threads_speedup_min,
                "beam thread-scaling speedup"))
        if name == "serve_closed_loop":
            failures.extend(check_serve_closed_loop(
                fresh_table, serve_reject_max, serve_p99_max_ms))
        if name == "snapshot_open":
            failures.extend(check_identical_rows(fresh_table))
            failures.extend(check_snapshot_open(fresh_table,
                                                snapshot_speedup_min))
        if name == "ext_incremental":
            failures.extend(check_ext_incremental(fresh_table))
    base_names = {t["bench"] for t in baseline}
    for extra in [n for n in fresh_by_name if n not in base_names]:
        print(f"note: fresh table {extra!r} has no committed baseline",
              file=sys.stderr)
    return failures


def check_micro_partition(table, speedup_min):
    """Hard gate: flat kernels must beat the legacy layout on the
    intersection ops by at least speedup_min. The ratio is computed in one
    process on one machine, so no tolerance applies."""
    failures = []
    columns = table["columns"]
    op_col = columns.index("op")
    speedup_col = columns.index("speedup")
    rows_col = columns.index("rows")
    for row in table["rows"]:
        op = row[op_col]
        if op not in GATED_INTERSECTION_OPS:
            continue
        speedup = as_number(row[speedup_col])
        if speedup is None or speedup < speedup_min:
            failures.append(
                f"micro_partition: op {op!r} at {row[rows_col]} rows has "
                f"flat-vs-legacy speedup {row[speedup_col]} "
                f"(gate requires >= {speedup_min:g})")
    return failures


def check_snapshot_open(table, speedup_min):
    """Hard gate: opening from a snapshot must beat the cold compile by at
    least speedup_min. Both timings run in the same process on the same
    machine against the same files, so the ratio is machine-independent and
    gets no tolerance. (Byte-identity of the loaded session is enforced
    separately by check_identical_rows.)"""
    failures = []
    columns = table["columns"]
    speedup_col = columns.index("speedup")
    rows_col = columns.index("rows")
    for row in table["rows"]:
        speedup = as_number(row[speedup_col])
        if speedup is None or speedup < speedup_min:
            failures.append(
                f"snapshot_open: {row[rows_col]} rows has cold-vs-snapshot "
                f"open speedup {row[speedup_col]} "
                f"(gate requires >= {speedup_min:g})")
    return failures


def check_ext_incremental(table):
    """Hard gate: the incremental verifier's per-update cost is flat in N.
    Both ends of the sweep run in one process on one machine, so the ratio
    gets no tolerance."""
    columns = table["columns"]
    n_col = columns.index("N")
    inc_col = columns.index("incremental(ms/upd)")
    rows = sorted(table["rows"], key=lambda row: as_number(row[n_col]))
    if len(rows) < 2:
        return []
    smallest, largest = rows[0], rows[-1]
    low = as_number(smallest[inc_col])
    high = as_number(largest[inc_col])
    if low is None or high is None or high > low * EXT_INCREMENTAL_GROWTH_MAX:
        return [f"ext_incremental: incremental(ms/upd) grows from "
                f"{smallest[inc_col]} at N={smallest[n_col]} to "
                f"{largest[inc_col]} at N={largest[n_col]} (gate requires "
                f"<= {EXT_INCREMENTAL_GROWTH_MAX:g}x)"]
    return []


def check_identical_rows(table):
    """Every row of a table with an `identical` column must read "yes":
    determinism does not depend on the machine, so this is unconditional."""
    failures = []
    columns = table["columns"]
    if "identical" not in columns:
        print(f"note: {table['bench']} has no 'identical' column; "
              "determinism check skipped (refresh the bench binary)",
              file=sys.stderr)
        return failures
    identical_col = columns.index("identical")
    for row in table["rows"]:
        if row[identical_col] != "yes":
            failures.append(
                f"{table['bench']}: row {row[0]} is not byte-identical to "
                f"the serial reference (identical={row[identical_col]!r})")
    return failures


def check_scaling_floor(table, value_col_name, floor, what):
    """Hard gate for thread-scaling floors, conditioned on hardware: rows
    with 8+ threads must reach `floor`, but only when the machine that
    produced the run reports hw >= threads — a scaling ratio physically
    cannot materialize on fewer cores than the sweep point uses (a
    single-CPU runner measures pure overhead). Rows skipped here are still
    covered by the unconditional identical checks."""
    failures = []
    columns = table["columns"]
    if "hw" not in columns:
        print(f"note: {table['bench']} has no 'hw' column; scaling floor "
              "skipped (refresh the bench binary)", file=sys.stderr)
        return failures
    threads_col = columns.index("threads")
    hw_col = columns.index("hw")
    value_col = columns.index(value_col_name)
    for row in table["rows"]:
        threads = as_number(row[threads_col])
        hw = as_number(row[hw_col])
        if threads is None or threads < 8:
            continue
        if hw is None or hw < threads:
            continue  # This machine cannot scale to this sweep point.
        value = as_number(row[value_col])
        if value is None or value < floor:
            failures.append(
                f"{table['bench']}: {what} at {int(threads)} threads is "
                f"{row[value_col]} (gate requires >= {floor:g} when "
                f"hw >= threads; hw={int(hw)})")
    return failures


def check_serve_closed_loop(table, reject_max_pct, p99_max_ms):
    """Hard gates for the service closed-loop sweep, conditioned on hardware
    (the `hw` column is the producing machine's hardware concurrency):

      * rejection rate: on capable hardware (hw >= 8) the per-session strands
        with bounded waiting must answer virtually everything — the 503 rate
        (rejected_503 / sent) must stay under reject_max_pct on every row;
      * tail latency: p99_ms must stay under p99_max_ms, but only on rows
        the machine can actually drive concurrently (clients <= 4 * hw) —
        a closed-loop client count far beyond the core count measures queue
        depth, not service latency.

    Rows from small machines (dev laptops, 1-CPU runners) are skipped
    entirely; the regular row-wise time comparison still applies to them."""
    failures = []
    columns = table["columns"]
    if "hw" not in columns:
        print(f"note: {table['bench']} has no 'hw' column; serve floors "
              "skipped (refresh the bench binary)", file=sys.stderr)
        return failures
    clients_col = columns.index("clients")
    hw_col = columns.index("hw")
    sent_col = columns.index("sent")
    rejected_col = columns.index("rejected_503")
    p99_col = columns.index("p99_ms")
    for row in table["rows"]:
        hw = as_number(row[hw_col])
        if hw is None or hw < 8:
            continue  # Small machine: floors do not arm.
        clients = as_number(row[clients_col])
        sent = as_number(row[sent_col])
        rejected = as_number(row[rejected_col])
        if sent and rejected is not None:
            reject_pct = rejected / sent * 100.0
            if reject_pct > reject_max_pct:
                failures.append(
                    f"serve_closed_loop: {int(clients)} clients rejected "
                    f"{int(rejected)}/{int(sent)} requests "
                    f"({reject_pct:.2f}%; gate requires <= "
                    f"{reject_max_pct:g}% when hw >= 8)")
        if clients is not None and clients > 4 * hw:
            continue  # Oversubscribed point: p99 measures queueing, not serving.
        p99 = as_number(row[p99_col])
        if p99 is None or p99 > p99_max_ms:
            failures.append(
                f"serve_closed_loop: {int(clients)} clients has p99 "
                f"{row[p99_col]} ms (gate requires <= {p99_max_ms:g} ms "
                f"when hw >= 8 and clients <= 4*hw; hw={int(hw)})")
    return failures


def check_clean_table(table, clean_speedup_min):
    """Hard gates for the OFDClean beam-search tables: every row must read
    identical=yes (`clean_beam`: both scorers give every node the same
    score; `clean_threads`: the run matches the serial run byte for byte),
    and the `clean_beam` full-vs-incremental speedup (a same-process ratio)
    must meet the minimum. The `clean_threads` speedup floor is enforced separately by
    check_scaling_floor (it needs capable hardware, hw >= threads)."""
    failures = []
    name = table["bench"]
    columns = table["columns"]
    identical_col = columns.index("identical")
    speedup_col = columns.index("speedup")
    for row in table["rows"]:
        if row[identical_col] != "yes":
            failures.append(
                f"{name}: row {row[0]} is not byte-identical to its "
                f"reference (identical={row[identical_col]!r})")
        if name != "clean_beam":
            continue
        speedup = as_number(row[speedup_col])
        if speedup is None or speedup < clean_speedup_min:
            failures.append(
                f"clean_beam: {row[0]} rows has full-vs-incremental speedup "
                f"{row[speedup_col]} (gate requires >= {clean_speedup_min:g})")
    return failures


def run_gate(args):
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)
    failures = compare_tables(baseline, fresh, args.rel_tol, args.abs_slack,
                              args.speedup_min, args.clean_speedup_min,
                              args.ext_products_speedup_min,
                              args.clean_threads_speedup_min,
                              args.serve_reject_max, args.serve_p99_max_ms,
                              args.snapshot_speedup_min)
    if failures:
        print(f"bench gate FAILED ({len(failures)} problem(s)) comparing "
              f"{args.fresh} against {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench gate passed: {args.fresh} vs {args.baseline} "
          f"({len(baseline)} tables)")
    return 0


def self_test():
    """Exercises the pass path and each failure mode on synthetic tables."""
    baseline = [
        {"bench": "micro_partition",
         "columns": ["op", "rows", "legacy(ms)", "flat(ms)", "speedup"],
         "rows": [["build", 20000, 0.10, 0.04, 2.50],
                  ["product", 20000, 0.75, 0.26, 2.88]]},
        {"bench": "serve_update_latency",
         "columns": ["N", "update(ms)", "full_reverify(ms)", "speedup"],
         "rows": [[5000, 0.014, 0.33, 23.0]]},
        {"bench": "clean_beam",
         "columns": ["rows", "cands", "nodes", "full(ms)", "incremental(ms)",
                     "speedup", "identical"],
         "rows": [[10000, 450, 1380, 420.0, 150.0, 2.80, "yes"]]},
        {"bench": "clean_threads",
         "columns": ["threads", "hw", "rows", "beam(ms)", "speedup",
                     "identical"],
         "rows": [[1, 16, 10000, 150.0, 1.00, "yes"],
                  [8, 16, 10000, 45.0, 3.33, "yes"]]},
        {"bench": "ext_parallel",
         "columns": ["threads", "hw", "seconds", "speedup", "validate_s",
                     "validate_x", "products_s", "products_x", "identical"],
         "rows": [[1, 16, 0.80, 1.00, 0.10, 1.00, 0.70, 1.00, "yes"],
                  [8, 16, 0.15, 5.33, 0.02, 5.00, 0.13, 5.38, "yes"]]},
        {"bench": "serve_closed_loop",
         "columns": ["clients", "queue_depth", "hw", "sent", "ok",
                     "rejected_503", "p50_ms", "p95_ms", "p99_ms"],
         "rows": [[32, 64, 16, 1600, 1600, 0, 0.9, 2.1, 3.2],
                  [256, 64, 16, 12800, 12795, 5, 4.0, 7.5, 9.8]]},
        {"bench": "snapshot_open",
         "columns": ["rows", "cold(s)", "snap(s)", "speedup", "identical"],
         "rows": [[120000, 0.62, 0.07, 8.90, "yes"]]},
        {"bench": "ext_incremental",
         "columns": ["N", "full(ms/upd)", "incremental(ms/upd)", "speedup",
                     "classes-rechecked"],
         "rows": [[5000, 0.020, 0.00025, "80x", 9514],
                  [40000, 0.157, 0.00040, "392x", 9515]]},
    ]

    def gate(fresh):
        return compare_tables(baseline, fresh, rel_tol=0.5, abs_slack=0.25,
                              speedup_min=2.0, clean_speedup_min=2.0,
                              ext_products_speedup_min=4.0,
                              clean_threads_speedup_min=3.0,
                              serve_reject_max=1.0, serve_p99_max_ms=10.0,
                              snapshot_speedup_min=5.0)

    def clone(tables):
        return json.loads(json.dumps(tables))

    checks = []

    # 1. Identical run passes.
    checks.append(("identical run passes", gate(clone(baseline)) == []))

    # 2. A regressed time cell (beyond rel tolerance and abs slack) fails.
    regressed = clone(baseline)
    regressed[1]["rows"][0][2] = 5.0  # full_reverify(ms): 0.33 -> 5.0
    failures = gate(regressed)
    checks.append(("regressed time cell fails",
                   len(failures) == 1 and "full_reverify" in failures[0]))

    # 3. Noise within tolerance passes (big relative jump, tiny absolute).
    noisy = clone(baseline)
    noisy[1]["rows"][0][1] = 0.025  # update(ms): 0.014 -> 0.025 (< abs slack)
    checks.append(("sub-slack noise passes", gate(noisy) == []))

    # 4. Speedup below the hard minimum fails even with fast absolute times.
    slow_ratio = clone(baseline)
    slow_ratio[0]["rows"][1][2] = 0.30  # legacy(ms)
    slow_ratio[0]["rows"][1][3] = 0.26  # flat(ms): within tolerance
    slow_ratio[0]["rows"][1][4] = 1.15  # speedup < 2.0
    failures = gate(slow_ratio)
    checks.append(("speedup below minimum fails",
                   len(failures) == 1 and "speedup 1.15" in failures[0]))

    # 5. Build op is not speedup-gated (only the intersection ops are).
    slow_build = clone(baseline)
    slow_build[0]["rows"][0][4] = 1.10  # build speedup < 2.0: allowed
    checks.append(("build op not speedup-gated", gate(slow_build) == []))

    # 6. A clean_beam speedup below the minimum fails.
    slow_clean = clone(baseline)
    slow_clean[2]["rows"][0][5] = 1.40  # clean_beam speedup < 2.0
    failures = gate(slow_clean)
    checks.append(("clean_beam speedup below minimum fails",
                   len(failures) == 1 and "1.4" in failures[0]))

    # 7. A non-identical clean row fails, in either clean table.
    broken_identical = clone(baseline)
    broken_identical[3]["rows"][1][5] = "NO"
    failures = gate(broken_identical)
    checks.append(("non-identical clean row fails",
                   len(failures) == 1 and "byte-identical" in failures[0]))

    # 8. A missing table fails.
    missing = clone(baseline)[1:]
    failures = gate(missing)
    checks.append(("missing table fails",
                   len(failures) == 1 and "missing" in failures[0]))

    # 9. Shape drift (row count change) fails with refresh advice.
    reshaped = clone(baseline)
    reshaped[0]["rows"].append(["refine", 20000, 0.73, 0.04, 16.0])
    failures = gate(reshaped)
    checks.append(("row-count drift fails",
                   len(failures) == 1 and "refresh" in failures[0]))

    # 10. Thread-scaling floors on capable hardware (hw >= threads): a
    #     clean_threads beam speedup below 3.0 at 8 threads fails ...
    flat_threads = clone(baseline)
    flat_threads[3]["rows"][1][4] = 2.10  # speedup < 3.0, hw=16
    failures = gate(flat_threads)
    checks.append(("clean_threads floor enforced when hw >= threads",
                   len(failures) == 1 and "beam thread-scaling" in failures[0]
                   and "2.1" in failures[0]))
    #     ... and an ext_parallel products-phase speedup below 4.0 fails.
    flat_products = clone(baseline)
    flat_products[4]["rows"][1][7] = 1.20  # products_x < 4.0, hw=16
    failures = gate(flat_products)
    checks.append(("ext_parallel products floor enforced when hw >= threads",
                   len(failures) == 1 and "products-phase" in failures[0]
                   and "1.2" in failures[0]))

    # 11. The same flat ratios pass on a machine that cannot scale (hw <
    #     threads, e.g. the single-CPU runner): the floor is hardware-
    #     conditional, the identical checks still apply.
    small_machine = clone(baseline)
    for table in (small_machine[3], small_machine[4]):
        for row in table["rows"]:
            row[1] = 1  # hw = 1
    small_machine[3]["rows"][1][4] = 0.81  # clean_threads speedup
    small_machine[4]["rows"][1][7] = 0.98  # ext_parallel products_x
    checks.append(("scaling floors skipped when hw < threads",
                   gate(small_machine) == []))

    # 12. A non-identical ext_parallel row fails on any machine.
    broken_ext = clone(small_machine)
    broken_ext[4]["rows"][1][8] = "NO"
    failures = gate(broken_ext)
    checks.append(("non-identical ext_parallel row fails",
                   len(failures) == 1 and "byte-identical" in failures[0]))

    # 13. Serve floors on capable hardware (hw >= 8): a rejection rate over
    #     the maximum fails even when the latency columns look healthy ...
    rejecting = clone(baseline)
    rejecting[5]["rows"][0][4] = 1280   # ok
    rejecting[5]["rows"][0][5] = 320    # rejected_503: 20% of sent
    failures = gate(rejecting)
    checks.append(("serve rejection rate over maximum fails",
                   len(failures) == 1 and "rejected" in failures[0]
                   and "20.00%" in failures[0]))
    #     ... and a p99 above the floor fails on a drivable row
    #     (clients <= 4*hw).
    slow_tail = clone(baseline)
    slow_tail[5]["rows"][0][8] = 14.0   # p99_ms at 32 clients, hw=16
    failures = gate(slow_tail)
    checks.append(("serve p99 over floor fails on drivable row",
                   any("p99" in f and "14" in f for f in failures)))

    # 14. The oversubscribed row (clients > 4*hw) is exempt from the p99
    #     floor but still rejection-gated.
    slow_oversub = clone(baseline)
    # p99_ms at 256 clients, hw=16: above the 10 ms floor (which does not
    # arm at 256 > 4*16 clients) yet within the row-wise time tolerance.
    slow_oversub[5]["rows"][1][8] = 12.0
    checks.append(("oversubscribed row exempt from p99 floor",
                   gate(slow_oversub) == []))
    rejecting_oversub = clone(baseline)
    rejecting_oversub[5]["rows"][1][4] = 10800
    rejecting_oversub[5]["rows"][1][5] = 2000  # 15.6% rejected
    failures = gate(rejecting_oversub)
    checks.append(("oversubscribed row still rejection-gated",
                   len(failures) == 1 and "rejected" in failures[0]))

    # 15. Small machines (hw < 8, e.g. the dev box or a 4-core hosted
    #     runner) skip both serve floors: the closed loop physically cannot
    #     hit datacenter tails there. Time columns are still diffed row-wise
    #     against the baseline by the generic comparison.
    small_serve = clone(baseline)
    for row in small_serve[5]["rows"]:
        row[2] = 1                        # hw = 1
    small_serve[5]["rows"][0][5] = 500  # heavy rejection: no floor to trip
    checks.append(("serve floors skipped when hw < 8",
                   gate(small_serve) == []))

    # 16. Snapshot-open floors: a speedup below 5.0 fails even when the
    #     absolute times are within tolerance, and a non-identical loaded
    #     session fails unconditionally.
    slow_snapshot = clone(baseline)
    slow_snapshot[6]["rows"][0][1] = 0.25  # cold(s): faster than baseline
    slow_snapshot[6]["rows"][0][3] = 3.60  # speedup < 5.0
    failures = gate(slow_snapshot)
    checks.append(("snapshot_open speedup below minimum fails",
                   len(failures) == 1 and "cold-vs-snapshot" in failures[0]
                   and "3.6" in failures[0]))
    broken_snapshot = clone(baseline)
    broken_snapshot[6]["rows"][0][4] = "NO"
    failures = gate(broken_snapshot)
    checks.append(("non-identical snapshot session fails",
                   len(failures) == 1 and "byte-identical" in failures[0]))

    # 17. ext_incremental flatness: a per-update cost that grows with N the
    #     way a whole-class re-tally does (0.0007 -> 0.0037 ms from 5k to
    #     40k rows) fails, although both cells are within the time slack.
    growing = clone(baseline)
    growing[7]["rows"][0][2] = 0.0007
    growing[7]["rows"][1][2] = 0.0037
    failures = gate(growing)
    checks.append(("ext_incremental cost growing with N fails",
                   len(failures) == 1 and "grows from" in failures[0]
                   and "0.0037" in failures[0]))

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"self-test FAILED: {failed}")
        return 1
    print(f"self-test passed ({len(checks)} checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--fresh", help="freshly collected JSON")
    parser.add_argument("--rel-tol", type=float, default=0.5,
                        help="relative tolerance for time columns "
                             "(default 0.5 = +50%%)")
    parser.add_argument("--abs-slack", type=float, default=0.25,
                        help="absolute slack for time columns, in the "
                             "column's own unit (default 0.25)")
    parser.add_argument("--speedup-min", type=float, default=2.0,
                        help="hard minimum for micro_partition intersection "
                             "op speedups (default 2.0)")
    parser.add_argument("--clean-speedup-min", type=float, default=2.0,
                        help="hard minimum for the clean_beam speedup of "
                             "incremental over full node scoring on one "
                             "scorer (default 2.0)")
    parser.add_argument("--ext-products-speedup-min", type=float, default=4.0,
                        help="hard minimum for the ext_parallel products-"
                             "phase speedup at 8+ threads when the run "
                             "machine has hw >= threads (default 4.0)")
    parser.add_argument("--clean-threads-speedup-min", type=float, default=3.0,
                        help="hard minimum for the clean_threads beam "
                             "speedup at 8+ threads when the run machine "
                             "has hw >= threads (default 3.0)")
    parser.add_argument("--serve-reject-max", type=float, default=1.0,
                        help="hard maximum 503 rejection rate (percent) for "
                             "serve_closed_loop rows produced on hw >= 8 "
                             "machines (default 1.0)")
    parser.add_argument("--serve-p99-max-ms", type=float, default=10.0,
                        help="hard maximum p99 latency (ms) for "
                             "serve_closed_loop rows with hw >= 8 and "
                             "clients <= 4*hw (default 10.0)")
    parser.add_argument("--snapshot-speedup-min", type=float, default=5.0,
                        help="hard minimum cold-compile-vs-snapshot-open "
                             "speedup for snapshot_open rows (default 5.0)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in negative/positive tests")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required (or --self-test)")
    sys.exit(run_gate(args))


if __name__ == "__main__":
    main()
