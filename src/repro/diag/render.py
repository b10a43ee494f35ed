"""Rendering: diagnostics → human-readable text and machine JSON.

``render_diagnostic`` produces the indented failure section that
:meth:`repro.vc.errors.ModuleResult.report` splices under each FAILED
line; ``module_to_json`` produces the full machine-readable result the
CI/demo scripts and error-feedback benchmarks consume.
"""

from __future__ import annotations

from ..vc.errors import PROVED
from .profile import profile_table
from .taxonomy import Diagnostic


def render_diagnostic(diag: Diagnostic) -> str:
    """Multi-line human rendering of one failure's diagnostic payload."""
    lines: list[str] = []
    if diag.witness:
        lines.append("counterexample:")
        width = max(len(r["name"]) for r in diag.witness)
        for r in diag.witness:
            lines.append(f"  {r['name']:<{width}} = {r['value']}")
    if diag.conjuncts:
        failing = [c for c in diag.conjuncts if c["status"] != PROVED]
        lines.append(f"split: {len(failing)} of {len(diag.conjuncts)} "
                     f"conjuncts fail")
        for c in diag.conjuncts:
            mark = "✓" if c["status"] == PROVED else "✗"
            lines.append(f"  {mark} [{c['index']}] {c['text']}")
    if diag.qi_profile:
        lines.append("quantifier instantiations (top "
                     f"{len(diag.qi_profile)}):")
        for tl in profile_table(diag.qi_profile).splitlines():
            lines.append(f"  {tl}")
    for note in diag.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def obligation_to_json(o) -> dict:
    return {
        "label": o.label,
        "kind": o.kind,
        "status": o.status,
        "seq": o.seq,
        "span": str(o.span) if o.span is not None else None,
        "error_type": None if o.ok else o.error_type,
        "seconds": round(o.seconds, 6),
        # Schema v2 (additive): the automation profile whose verdict
        # this is (None = the session primary) and the portfolio race
        # record ({raced, outcomes, winner}, None when the obligation
        # was never raced).
        "profile": o.stats.get("profile"),
        "portfolio": o.stats.get("portfolio"),
        # Schema v3: the layer whose verdict this run adopted (see
        # Obligation.answered_by); replaces v2's "static" flag.
        "answered_by": o.answered_by,
        "diag": o.diag.to_dict() if o.diag is not None else None,
    }


def render_findings(findings) -> str:
    """Human rendering of static-analysis findings, one block each."""
    lines: list[str] = []
    for f in findings:
        loc = f" @ {f.span}" if f.span is not None else ""
        lines.append(f"{f.severity.upper()} [{f.pass_id}] {f.where}{loc}")
        lines.append(f"  {f.message}")
        if f.suggestion:
            lines.append(f"  hint: {f.suggestion}")
    return "\n".join(lines)


def finding_to_json(f) -> dict:
    return {
        "pass": f.pass_id,
        "severity": f.severity,
        "where": f.where,
        "message": f.message,
        "span": str(f.span) if f.span is not None else None,
        "suggestion": f.suggestion or None,
    }


def analysis_to_json(report) -> dict:
    """Machine-readable rendering of an AnalysisReport."""
    return {
        "schema_version": SCHEMA_VERSION,
        "module": report.module,
        "ok": report.ok,
        "seconds": round(report.seconds, 6),
        "passes": list(report.passes),
        "errors": len(report.errors()),
        "warnings": len(report.warnings()),
        "findings": [finding_to_json(f) for f in report.sorted_findings()],
    }


# Version of the machine-readable report below.  Bump on any breaking
# change to the key layout; consumers should reject versions they do not
# know.  The schema is documented in README.md ("Machine-readable
# reports").  v2 added the per-obligation "profile" and "portfolio"
# fields (additive: every v1 key is unchanged); v3 replaced the
# per-obligation "static" flag with "answered_by".
SCHEMA_VERSION = 3


def module_to_json(result) -> dict:
    """Machine-readable rendering of a ModuleResult."""
    return {
        "schema_version": SCHEMA_VERSION,
        "module": result.name,
        "ok": result.ok,
        "rejected": getattr(result, "rejected", False),
        "analysis": (analysis_to_json(result.analysis)
                     if getattr(result, "analysis", None) is not None
                     else None),
        "seconds": round(result.seconds, 6),
        "query_bytes": result.query_bytes,
        "functions": [
            {
                "name": f.name,
                "ok": f.ok,
                "seconds": round(f.seconds, 6),
                "obligations": [obligation_to_json(o)
                                for o in f.obligations],
            }
            for f in result.functions
        ],
        "failures": [
            {"function": fn, **obligation_to_json(o)}
            for fn, o in result.failures()
        ],
        "stats": {k: v for k, v in result.stats.items()
                  if k != "inst_profile"},
        "inst_profile": result.stats.get("inst_profile") or {},
    }
