"""Report rendering for harness rows: fixed-column TSV and a richer JSON
form.  Witness sets appear only in JSON and only when the caller asks for
deterministic output; sizes, node counts and verdicts are always present.

Both renderers read their rows once, from any iterable, and keep only what
they write: a TSV line or a JSON record per row, plus the verdict tally
that the summary is written from.  A caller that passes a ``VerdictTally``
reads the exit code from the same counts.

``hashlib`` is imported inside ``witness_digest``, not here: it maps
OpenSSL's libcrypto (~3.4 MB of resident memory), which only reports that
print a digest should pay for.
"""

from __future__ import annotations

import json

from .harness import RowResult, tallied

TSV_COLUMNS = ("family", "n", "m", "parts", "formula", "exceptional",
               "construction", "solver", "nodes", "millis", "verdict")


def witness_strings(pairs) -> list[str]:
    """Canonical serialization of a set of token pairs: sorted "{a,b}" strings."""
    return [f"{{{a},{b}}}" for a, b in sorted(pairs)]


def witness_digest(pairs) -> str:
    import hashlib

    blob = json.dumps(witness_strings(pairs)).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _row_cells(row: RowResult) -> list[str]:
    spec = row.spec
    parts = ",".join(map(str, spec.parts)) if spec is not None and spec.parts else None
    return [
        spec.kind if spec is not None else row.label,
        _cell(spec.n if spec is not None else None),
        _cell(spec.m if spec is not None else None),
        _cell(parts),
        _cell(row.formula.value if row.formula else None),
        _cell(row.formula.exceptional if row.formula else None),
        _cell(row.construction_size),
        _cell(row.solver.size if row.solver else None),
        _cell(row.solver.nodes_explored if row.solver else None),
        _cell(row.solver_millis),
        row.verdict,
    ]


def render_tsv(rows) -> str:
    tally = tallied(rows)
    lines = ["\t".join(TSV_COLUMNS)]
    lines += ["\t".join(_row_cells(row)) for row in tally]
    counts = tally.counts
    lines.append(f"# agree={counts['AGREE']} disagree={counts['DISAGREE']} "
                 f"aborted={counts['ABORTED']}")
    return "\n".join(lines) + "\n"


def row_record(row: RowResult, include_witness: bool = False) -> dict:
    spec = row.spec
    record = {
        "family": spec.kind if spec is not None else row.label,
        "label": row.label,
        "n": spec.n if spec is not None else None,
        "m": spec.m if spec is not None else None,
        "parts": list(spec.parts) if spec is not None and spec.parts else None,
        "formula": None,
        "construction": None,
        "solver": None,
        "verdict": row.verdict,
    }
    if row.formula is not None:
        record["formula"] = {
            "value": row.formula.value,
            "exceptional": row.formula.exceptional,
            "formula_id": row.formula.formula_id,
        }
    if row.construction_size is not None:
        record["construction"] = {
            "size": row.construction_size,
            "valid": row.construction_valid,
            "digest": witness_digest(row.construction_pairs),
        }
        if include_witness:
            record["construction"]["witness"] = witness_strings(row.construction_pairs)
    if row.solver is not None:
        record["solver"] = {
            "size": row.solver.size,
            "nodes": row.solver.nodes_explored,
            "millis": row.solver_millis,
        }
        if include_witness:
            record["solver"]["witness"] = witness_strings(row.solver_witness_pairs)
    return record


def render_json(rows, include_witness: bool = False, extra: dict | None = None) -> str:
    tally = tallied(rows)
    records = [row_record(r, include_witness) for r in tally]
    counts = tally.counts
    doc = {
        "rows": records,
        "summary": {"agree": counts["AGREE"], "disagree": counts["DISAGREE"],
                    "aborted": counts["ABORTED"]},
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2) + "\n"
