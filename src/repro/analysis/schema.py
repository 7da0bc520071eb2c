"""A minimal JSON-Schema subset validator for the JSON report.

CI validates ``--format json`` output against ``docs/analysis_report
_schema.json`` without a third-party ``jsonschema`` dependency
(mirroring the hand-rolled validator idiom of :mod:`repro.obs.schema`).
Supported keywords — the only ones that schema uses:

``type`` (object/array/string/integer/number/boolean), ``required``,
``properties``, ``additionalProperties`` (``false`` or a schema),
``items``, ``enum``, ``pattern``, ``minimum``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List, Union

_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
}

_META_KEYS = {"$schema", "title", "description"}


class SchemaError(ValueError):
    """A document does not conform to its schema."""


def load_schema(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and parse a schema file."""
    return json.loads(Path(path).read_text())


def validate(document: Any, schema: Dict[str, Any], where: str = "$") -> None:
    """Raise :class:`SchemaError` when ``document`` violates ``schema``."""
    errors = _validate(document, schema, where)
    if errors:
        raise SchemaError("; ".join(errors))


def _validate(document: Any, schema: Dict[str, Any], where: str) -> List[str]:
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        check = _TYPE_CHECKS.get(expected)
        if check is None:
            errors.append(f"{where}: unsupported schema type {expected!r}")
            return errors
        if not check(document):
            errors.append(f"{where}: expected {expected}, got {type(document).__name__}")
            return errors
    if "enum" in schema and document not in schema["enum"]:
        errors.append(f"{where}: {document!r} not in {schema['enum']!r}")
    if (
        "pattern" in schema
        and isinstance(document, str)
        and re.search(schema["pattern"], document) is None
    ):
        errors.append(f"{where}: {document!r} does not match {schema['pattern']!r}")
    if (
        "minimum" in schema
        and isinstance(document, (int, float))
        and document < schema["minimum"]
    ):
        errors.append(f"{where}: {document!r} below minimum {schema['minimum']!r}")
    if isinstance(document, dict):
        errors.extend(_validate_object(document, schema, where))
    if isinstance(document, list) and "items" in schema:
        for position, item in enumerate(document):
            errors.extend(_validate(item, schema["items"], f"{where}[{position}]"))
    return errors


def _validate_object(
    document: Dict[str, Any], schema: Dict[str, Any], where: str
) -> List[str]:
    errors: List[str] = []
    properties: Dict[str, Any] = schema.get("properties", {})
    for key in schema.get("required", []):
        if key not in document:
            errors.append(f"{where}: missing required key {key!r}")
    additional = schema.get("additionalProperties")
    for key, value in document.items():
        if key in properties:
            errors.extend(_validate(value, properties[key], f"{where}.{key}"))
        elif additional is False and key not in _META_KEYS:
            errors.append(f"{where}: unexpected key {key!r}")
        elif isinstance(additional, dict):
            errors.extend(_validate(value, additional, f"{where}.{key}"))
    return errors


__all__ = ("SchemaError", "load_schema", "validate")
