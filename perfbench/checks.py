"""Output check for one study run.

A run passes when its process exited 0, no sample was aborted, the rate
fit did not fail, every slope lies within the stated tolerance of its
reference order, and the CSV agrees with the JSON summary row by row.
The caller adds the determinism check: every CSV of one workload in one
invocation has the same digest (and a two-worker study matches a serial
one).  No digest is pinned, because a faster sampler may legitimately
change the draws.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

# Reference orders: strong (rho + 1) / 2 = 1.5 for q_k = k^-2, first-order
# temporal splitting, and the projection/Ritz orders s - r of the operator
# pairs.  The Monte-Carlo tolerance is ~5 confidence half-widths of the
# shipped fits; the operator norms are deterministic.
REFERENCE = {
    "strong": ({"slope": 1.5}, 0.1),
    "splitting_dt": ({"slope": 1.0}, 0.1),
    "operators": ({"0,2,l2": 2.0, "1,2,ritz": 1.0, "0,1,l2": 1.0}, 0.05),
}


def digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


def _rows(csv_text):
    lines = csv_text.splitlines()
    header = dict(line[2:].split("=", 1) for line in lines
                  if line.startswith("# "))
    body = [line for line in lines if not line.startswith("#")]
    return header, list(csv.DictReader(io.StringIO("\n".join(body))))


def _close(reference, tolerance, value, what):
    if not math.isfinite(value):
        return [f"{what}: fit failed (slope {value})"]
    if abs(value - reference) > tolerance:
        return [f"{what}: slope {value:.4f} outside {reference} +/- "
                f"{tolerance}"]
    return []


def check_study(kind, exit_code, csv_text, summary):
    """Problems found in one study's outputs; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit status {exit_code}"]
    if csv_text is None or summary is None:
        return ["missing CSV or JSON output"]
    problems = []
    refs, tolerance = REFERENCE[kind]
    try:
        header, rows = _rows(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if header.get("config_hash") != summary.get("config_hash") \
            or header.get("seed") != str(summary.get("seed")):
        problems.append("CSV header does not match the JSON summary")
    if kind == "operators":
        fits = {f"{f['s']:g},{f['r']:g},{f['which']}": f
                for f in summary["fits"]}
        seen = {f"{float(r['s']):g},{float(r['r']):g},{r['which']}":
                float(r["slope"]) for r in rows}
        if seen.keys() != fits.keys() or set(fits) != set(refs):
            return problems + ["operator pairs differ from the config"]
        for key, slope in seen.items():
            if slope != fits[key]["slope"]:
                problems.append(f"{key}: CSV slope differs from JSON")
            problems += _close(refs[key], tolerance, slope, key)
        return problems
    if summary.get("aborted_total") != 0:
        problems.append(f"{summary.get('aborted_total')} samples aborted")
    problems += _close(refs["slope"], tolerance, float(summary["slope"]),
                       kind)
    levels = summary["levels"]
    if len(rows) != len(levels):
        return problems + ["CSV and JSON list different levels"]
    for row, level in zip(rows, levels):
        if (float(row["h"]) != level["h"]
                or float(row["error"]) != level["error"]
                or float(row["stderr"]) != level["stderr"]
                or (row["usable"] == "true") != level["usable"]):
            problems.append(f"level {row['level']}: CSV differs from JSON")
    return problems


def same_digests(digests):
    """Problem list for a group of CSV digests that must all be equal."""
    if len(set(digests)) > 1:
        return [f"CSV digests differ across runs: {sorted(set(digests))}"]
    return []
