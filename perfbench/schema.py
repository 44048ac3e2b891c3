"""A JSON Schema checker for the keywords ctxlab's output schemas use.

Used by ``pin.py`` before it pins a ``--json`` output.  Covers type, const, enum, properties, required, additionalProperties,
items, prefixItems, minItems, maxItems, minimum, maximum, pattern and oneOf.
Any other keyword is refused, so a schema that grows one fails loudly
instead of passing unchecked.
"""

from __future__ import annotations

import re

_KNOWN = {"$schema", "title", "type", "const", "enum", "properties", "required",
          "additionalProperties", "items", "prefixItems", "minItems",
          "maxItems", "minimum", "maximum", "pattern", "oneOf"}

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def errors(value, schema: dict, path: str = "$") -> list[str]:
    """Every way ``value`` breaks ``schema``; empty when it validates."""
    unknown = set(schema) - _KNOWN
    if unknown:
        return [f"{path}: unsupported schema keywords {sorted(unknown)}"]
    out: list[str] = []
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_TYPES[t](value) for t in types):
            return [f"{path}: {value!r} is not of type {types}"]
    if "const" in schema and value != schema["const"]:
        out.append(f"{path}: {value!r} != const {schema['const']!r}")
    if "enum" in schema and value not in schema["enum"]:
        out.append(f"{path}: {value!r} not in enum")
    if "oneOf" in schema:
        matches = sum(not errors(value, s, path) for s in schema["oneOf"])
        if matches != 1:
            out.append(f"{path}: matches {matches} oneOf branches")
    if isinstance(value, str) and "pattern" in schema:
        if not re.search(schema["pattern"], value):
            out.append(f"{path}: {value!r} does not match {schema['pattern']}")
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            out.append(f"{path}: {value} < minimum")
        if "maximum" in schema and value > schema["maximum"]:
            out.append(f"{path}: {value} > maximum")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            out.append(f"{path}: too few items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            out.append(f"{path}: too many items")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if isinstance(sub, dict):
                out += errors(item, sub, f"{path}[{i}]")
            elif sub is False:
                out.append(f"{path}[{i}]: item not allowed")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                out.append(f"{path}: missing {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                out += errors(item, props[key], f"{path}.{key}")
            elif extra is False:
                out.append(f"{path}: unexpected key {key!r}")
            elif isinstance(extra, dict):
                out += errors(item, extra, f"{path}.{key}")
    return out
