"""Validate an ``--obs-dir`` artifact directory against ``schema.json``.

The schema is a deliberately small, hand-rolled dialect (the container
ships no ``jsonschema``): per file, a ``kind`` (``json`` — one
document; ``jsonl`` — one document per line; ``prom`` — Prometheus text
exposition) plus ``required``/``optional`` field→type maps.  Types are
``string`` / ``number`` / ``integer`` / ``boolean`` / ``array`` /
``object`` / ``null``, and a list of those means a union.  Fields not
named in the schema are allowed (the format may grow), missing required
fields and wrong types are errors.

CLI (used by CI)::

    PYTHONPATH=src python -m repro.obs.validate <artifact-dir>
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Any

SCHEMA_PATH = Path(__file__).with_name("schema.json")

# metric_name{labels} value  — the subset of the exposition format
# repro.obs.metrics renders (no timestamps, no exemplars), including the
# non-finite spellings +Inf, -Inf and NaN.
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9][0-9eE+.-]*|[+-]Inf|NaN)$"
)
_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
    "null": lambda v: v is None,
}


def _type_ok(value: Any, expected: str | list[str]) -> bool:
    kinds = expected if isinstance(expected, list) else [expected]
    return any(_TYPE_CHECKS[kind](value) for kind in kinds)


def _check_fields(
    doc: Any, spec: dict[str, Any], where: str, errors: list[str]
) -> None:
    if not isinstance(doc, dict):
        errors.append(f"{where}: expected a JSON object, got {type(doc).__name__}")
        return
    for name, expected in spec.get("required", {}).items():
        if name not in doc:
            errors.append(f"{where}: missing required field {name!r}")
        elif not _type_ok(doc[name], expected):
            errors.append(
                f"{where}: field {name!r} should be {expected}, "
                f"got {type(doc[name]).__name__}"
            )
    for name, expected in spec.get("optional", {}).items():
        if name in doc and not _type_ok(doc[name], expected):
            errors.append(
                f"{where}: field {name!r} should be {expected}, "
                f"got {type(doc[name]).__name__}"
            )


def validate_artifact_dir(
    directory: str | Path, schema_path: str | Path = SCHEMA_PATH
) -> list[str]:
    """All schema violations in ``directory`` (empty list = valid)."""
    schema = json.loads(Path(schema_path).read_text())
    target = Path(directory)
    errors: list[str] = []
    if not target.is_dir():
        return [f"{target}: not a directory"]
    for filename, spec in schema["files"].items():
        path = target / filename
        if not path.is_file():
            errors.append(f"{filename}: missing")
            continue
        kind = spec["kind"]
        if kind == "json":
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                errors.append(f"{filename}: invalid JSON ({exc})")
                continue
            _check_fields(doc, spec, filename, errors)
        elif kind == "jsonl":
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"{filename}:{lineno}: invalid JSON ({exc})")
                    continue
                _check_fields(doc, spec, f"{filename}:{lineno}", errors)
        elif kind == "prom":
            for lineno, line in enumerate(path.read_text().splitlines(), start=1):
                if not line or line.startswith("#"):
                    continue
                if not _PROM_SAMPLE.match(line):
                    errors.append(
                        f"{filename}:{lineno}: not a Prometheus sample: {line!r}"
                    )
        else:  # pragma: no cover - schema.json is checked in
            errors.append(f"{filename}: unknown schema kind {kind!r}")
    manifest = target / "manifest.json"
    if manifest.is_file():
        try:
            declared = json.loads(manifest.read_text()).get("format")
            if declared != schema.get("format"):
                errors.append(
                    f"manifest.json: format {declared!r} != schema "
                    f"{schema.get('format')!r}"
                )
        except json.JSONDecodeError:
            pass  # already reported above
    return errors


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m repro.obs.validate <artifact-dir>", file=sys.stderr)
        return 2
    errors = validate_artifact_dir(args[0])
    for error in errors:
        print(f"INVALID {error}", file=sys.stderr)
    if not errors:
        print(f"{args[0]}: valid {json.loads(SCHEMA_PATH.read_text())['format']}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
