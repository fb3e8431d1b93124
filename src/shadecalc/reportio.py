"""Curve-file parsing, canonical serialization and the report envelope.

Curve files are UTF-8 JSON.  Coefficients travel as exact strings
("p/q", "p/q+r/s i"); projection-center lifts may carry quadratic surds
("a+b*sqrt(n)") so exact-algebraic sphere fixtures stay exact.  Unknown
fields are rejected.  Reports serialize to canonical JSON (sorted keys,
tight separators) so identical inputs give identical bytes.
"""

from __future__ import annotations

import json

from .curves import BUILTIN_FAMILIES, CurveComponent, CurveModel, describe_ambient
from .diagram import ProjectionCenter, center_from_lift
from .errors import CurveFileError, PreconditionError
from .poly import BinaryForm
from .projective import ProjPoint, QuadricSpec
from .scalars import GaussianRational, QuadExt, QQ, format_scalar, parse_scalar

__all__ = [
    "parse_curve_file",
    "parse_curve_json",
    "model_to_json",
    "ReportEnvelope",
    "emit_report",
]

SCHEMA = "shadecalc-report/1"

_TOP_FIELDS = {"ambient", "components", "family", "center", "comment"}
_COMP_FIELDS = {"label", "degree", "coords"}
_CENTER_FIELDS = {"lift", "point"}


def parse_curve_file(data: bytes):
    """Parse curve-file bytes; returns (CurveModel, forced center or None)."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CurveFileError(f"malformed JSON: {e}") from e
    return parse_curve_json(obj)


def parse_curve_json(obj):
    if not isinstance(obj, dict):
        raise CurveFileError("curve file must be a JSON object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise CurveFileError(f"unknown curve-file fields: {sorted(unknown)}")
    ambient = _parse_ambient(obj.get("ambient", "P3"))
    if "family" in obj and "components" in obj:
        raise CurveFileError("give either components or a family block, not both")
    if "family" in obj:
        model = _parse_family(obj["family"])
    elif "components" in obj:
        comps = [
            _parse_component(c, i, 5 if isinstance(ambient, QuadricSpec) else 4)
            for i, c in enumerate(obj["components"])
        ]
        model = CurveModel(ambient, comps)
        rep = model.validate()
        if not rep["valid"]:
            bad = [e for e in rep["components"] if "error" in e]
            raise CurveFileError(
                "; ".join(f"{e['label']}: {e['error']}" for e in bad)
            )
    else:
        raise CurveFileError("curve file needs components or a family block")
    center = None
    if "center" in obj:
        center = _parse_center(obj["center"], model)
    return model, center


def _parse_ambient(a):
    if a == "P3":
        return "P3"
    if isinstance(a, dict) and set(a) == {"Q3"} and isinstance(a["Q3"], dict):
        inner = a["Q3"]
        if set(inner) != {"c"}:
            raise CurveFileError('Q3 ambient needs exactly the field "c"')
        try:
            c = QQ(inner["c"])
        except (ValueError, ZeroDivisionError) as e:
            raise CurveFileError(f"bad quadric scale: {inner['c']!r}") from e
        if c <= 0:
            raise CurveFileError("quadric scale must be positive")
        return QuadricSpec(c)
    raise CurveFileError(f"unknown ambient {a!r}")


def _parse_component(c, idx, nvars):
    if not isinstance(c, dict):
        raise CurveFileError(f"component {idx} must be an object")
    unknown = set(c) - _COMP_FIELDS
    if unknown:
        raise CurveFileError(f"component {idx}: unknown fields {sorted(unknown)}")
    label = c.get("label", f"component-{idx}")
    coords = c.get("coords")
    if not isinstance(coords, list) or len(coords) != nvars:
        raise CurveFileError(
            f"component {label}: needs {nvars} coordinate arrays for this ambient"
        )
    degree = c.get("degree")
    forms = []
    for k, row in enumerate(coords):
        if not isinstance(row, list) or not row:
            raise CurveFileError(f"component {label}: coordinate {k} must be a list")
        vals = []
        for sval in row:
            try:
                v = parse_scalar(sval) if isinstance(sval, str) else None
            except ValueError as e:
                raise CurveFileError(f"component {label}: {e}") from e
            if v is None or isinstance(v, QuadExt):
                raise CurveFileError(
                    f"component {label}: coefficient {sval!r} is not an exact "
                    "rational or Gaussian rational string"
                )
            vals.append(v)
        forms.append((len(row) - 1, vals))
    degs = {d for d, _ in forms}
    if len(degs) != 1:
        raise CurveFileError(
            f"component {label}: coordinate degrees differ ({sorted(degs)})"
        )
    d = degs.pop()
    if degree is not None and degree != d:
        raise CurveFileError(
            f"component {label}: declared degree {degree} but coefficients give {d}"
        )
    try:
        return CurveComponent([BinaryForm(d, v) for _, v in forms], label=label)
    except PreconditionError as e:
        raise CurveFileError(str(e)) from e


def _parse_family(f):
    if not isinstance(f, dict) or "name" not in f:
        raise CurveFileError("family block needs a name")
    name = f["name"]
    if name not in BUILTIN_FAMILIES:
        raise CurveFileError(f"unknown family {name!r}")
    kwargs = {}
    for k, v in f.items():
        if k == "name":
            continue
        if k == "a":
            kwargs["a"] = QQ(v)
        elif k == "eps":
            kwargs["eps"] = int(v)
        else:
            raise CurveFileError(f"family {name}: unknown parameter {k!r}")
    try:
        return BUILTIN_FAMILIES[name](**kwargs)
    except KeyError as e:
        raise CurveFileError(f"family {name}: missing parameter {e}") from e


def _parse_center(c, model: CurveModel):
    if not isinstance(c, dict):
        raise CurveFileError("center must be an object")
    unknown = set(c) - _CENTER_FIELDS
    if unknown:
        raise CurveFileError(f"center: unknown fields {sorted(unknown)}")
    q = model.quadric()
    if "lift" in c:
        if q is None:
            raise CurveFileError("center lifts only make sense for Q3 curves")
        try:
            vals = [parse_scalar(s) for s in c["lift"]]
        except ValueError as e:
            raise CurveFileError(f"center: {e}") from e
        vals = [v if isinstance(v, QuadExt) else QuadExt(_require_real(v)) for v in vals]
        try:
            return center_from_lift(ProjPoint(vals, "P4"), q)
        except PreconditionError as e:
            raise CurveFileError(str(e)) from e
    if "point" in c:
        try:
            vals = [parse_scalar(s) for s in c["point"]]
        except ValueError as e:
            raise CurveFileError(f"center: {e}") from e
        for v in vals:
            if isinstance(v, QuadExt) or not v.is_real:
                raise CurveFileError("P3 centers must have rational coordinates")
        if q is not None:
            raise CurveFileError("Q3 curves need a quadric center lift")
        return ProjectionCenter(ProjPoint(vals, "P3"), hyperplane=0)
    raise CurveFileError("center needs a lift or a point")


def _require_real(v: GaussianRational):
    if not v.is_real:
        raise CurveFileError("center coordinates must be real")
    return v.re


def model_to_json(model: CurveModel, center=None):
    """Canonical JSON object for a curve model (inverse of the parser on
    explicit-component files)."""
    obj = {
        "ambient": describe_ambient(model.ambient),
        "components": [
            {
                "label": comp.label,
                "degree": comp.degree,
                "coords": [[format_scalar(c) for c in f.coeffs] for f in comp.coords],
            }
            for comp in model.components
        ],
    }
    if center is not None:
        if center.lift0 is not None:
            obj["center"] = {"lift": [format_scalar(c) for c in center.lift0.coords]}
        else:
            obj["center"] = {"point": [format_scalar(c) for c in center.point.coords]}
    return obj


class ReportEnvelope:
    """Versioned wrapper around one command's payload."""

    def __init__(self, command, flags, payload, diagnostics=None):
        self.command = command
        self.flags = flags
        self.payload = payload
        self.diagnostics = diagnostics or {}

    def to_obj(self):
        return {
            "schema": SCHEMA,
            "invocation": {"command": self.command, "flags": self.flags},
            "result": self.payload,
            "diagnostics": self.diagnostics,
        }


def emit_report(envelope: ReportEnvelope, fmt="json") -> bytes:
    """Serialize an envelope: canonical JSON or aligned text."""
    obj = envelope.to_obj()
    if fmt == "json":
        return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt == "text":
        lines = [f"shadecalc {envelope.command}"]
        for k in sorted(envelope.flags):
            lines.append(f"  {k} = {envelope.flags[k]}")
        lines.append("")
        lines.extend(_text_block(obj["result"], indent=0))
        if envelope.diagnostics:
            lines.append("")
            lines.append("diagnostics:")
            lines.extend(_text_block(envelope.diagnostics, indent=2))
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


def _text_block(obj, indent=0):
    pad = " " * indent
    out = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}{k}:")
                out.extend(_text_block(v, indent + 2))
            else:
                out.append(f"{pad}{k} = {_scalar_text(v)}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            if isinstance(v, (dict, list)) and v:
                out.append(f"{pad}[{i}]")
                out.extend(_text_block(v, indent + 2))
            else:
                out.append(f"{pad}[{i}] {_scalar_text(v)}")
    else:
        out.append(f"{pad}{_scalar_text(obj)}")
    return out


def _scalar_text(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    return str(v)
