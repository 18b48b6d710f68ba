"""Named verification results with a uniform JSON form."""

import json
from dataclasses import dataclass, field


def _jsonable(v):
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if hasattr(v, "item"):
        return v.item()
    return str(v)


@dataclass
class VerificationReport:
    """One checked relation: pass iff lhs <= rhs + tolerance (tolerance in metadata)."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "pass": self.passed,
            "metadata": _jsonable(self.metadata),
        }


def make_report(name, lhs, rhs, tol, metadata=None):
    """Inequality report lhs <= rhs, accepted up to tol."""
    lhs, rhs = float(lhs), float(rhs)
    md = dict(metadata or {})
    md["tolerance"] = float(tol)
    return VerificationReport(
        name=name, lhs=lhs, rhs=rhs, margin=rhs - lhs,
        passed=bool(lhs <= rhs + tol), metadata=md,
    )


def make_value_report(name, value, target, tol, metadata=None):
    """Closeness report |value - target| <= tol (stored as lhs/rhs)."""
    report = make_report(name, value, target, tol, metadata)
    report.passed = bool(abs(report.lhs - report.rhs) <= tol)
    return report


def write_reports_json(reports, path):
    payload = [r.to_dict() for r in reports]
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
