"""Report rendering for harness rows: fixed-column TSV and a richer JSON
form.  Only JSON carries witness sets, the construction's and the
solver's, as "{a,b}" pair strings: each row's certificate in checkable
form.  Sizes, node counts and verdicts are in both.  A row holds its
witnesses as token masks; ``witness_strings`` turns each into pairs once,
and the construction's digest hashes that same list.

Both renderers read their rows once, from any iterable, and keep only what
they write: a TSV line or a JSON record's text per row, plus the verdict
tally that the summary is written from: each wraps its rows in its own
``VerdictTally``.  A tally passed in as the rows still counts each row as
it goes through, so its caller reads the exit code from it.  A record's
text holds its row's witnesses, so a JSON sweep's memory grows with its
output.

``hashlib`` is imported inside ``witness_digest``, not here: it maps
OpenSSL's libcrypto (~3.4 MB of resident memory), which only reports that
print a digest should pay for.
"""

from __future__ import annotations

import json

from .graphs import members
from .harness import RowResult, VerdictTally

TSV_COLUMNS = ("family", "n", "m", "parts", "formula", "exceptional",
               "construction", "solver", "nodes", "millis", "verdict")


def witness_strings(pairs, mask: int) -> list[str]:
    """Canonical serialization of a token mask: the "{a,b}" strings of
    ``pairs[i]`` for its members i, in index order, which is lexicographic
    pair order, so the list is sorted as it is read."""
    return [f"{{{a},{b}}}" for a, b in (pairs[i] for i in members(mask))]


def witness_digest(strings: list[str]) -> str:
    """The first 12 hex digits of the SHA-256 of a witness list's JSON."""
    import hashlib

    return hashlib.sha256(json.dumps(strings).encode()).hexdigest()[:12]


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
    tally = VerdictTally(rows)
    lines = ["\t".join(TSV_COLUMNS)]
    lines += ["\t".join(_row_cells(row)) for row in tally]
    counts = tally.counts
    # the summary line carries the final newline, so the report is joined
    # once, with no second copy of it made to append one
    lines.append(f"# agree={counts['AGREE']} disagree={counts['DISAGREE']} "
                 f"aborted={counts['ABORTED']}\n")
    return "\n".join(lines)


def row_record(row: RowResult) -> dict:
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
    if row.construction is not None:
        witness = witness_strings(row.token_pairs, row.construction)
        record["construction"] = {
            "size": len(witness),
            "valid": row.construction_valid,
            "digest": witness_digest(witness),
            "witness": witness,
        }
    if row.solver is not None:
        record["solver"] = {
            "size": row.solver.size,
            "nodes": row.solver.nodes_explored,
            "millis": row.solver_millis,
            "witness": witness_strings(row.token_pairs, row.solver.witness),
        }
    return record


def render_json(rows, extra: dict | None = None) -> str:
    """``json.dumps(doc, indent=2)`` and a newline, doc holding the rows'
    records, summary and extra; each record is made text as its row goes
    by, indented to its place (a JSON string holds no raw newline)."""
    tally = VerdictTally(rows)
    texts = ["    " + json.dumps(row_record(r), indent=2).replace("\n", "\n    ")
             for r in tally]
    counts = tally.counts
    rest = {"summary": {"agree": counts["AGREE"], "disagree": counts["DISAGREE"],
                        "aborted": counts["ABORTED"]}, **(extra or {})}
    array = "[\n" + ",\n".join(texts) + "\n  ]" if texts else "[]"
    # rest's text, less its opening brace, closes the document
    return f'{{\n  "rows": {array},\n{json.dumps(rest, indent=2)[2:]}\n'
