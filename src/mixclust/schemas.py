"""Shipped schemas for every JSON document the CLI emits, plus a validator.

The validator understands the subset of JSON Schema the shipped schemas
use: type, required, properties, items and enum. Unknown object keys are
allowed unless a schema forbids them.
"""

from __future__ import annotations

from .errors import SchemaError

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_VECTOR = {"type": "array", "items": _NUMBER}
_MATRIX = {"type": "array", "items": _VECTOR}

FIT_RESULT = {
    "type": "object",
    "required": ["n", "p", "k", "beta", "seed", "weights", "means", "covariances",
                 "objective", "iterations", "stable", "restart_index", "outlier_count"],
    "properties": {
        "n": _INT, "p": _INT, "k": _INT, "beta": _NUMBER, "seed": _INT,
        "threshold": _NUMBER,
        "weights": _VECTOR,
        "means": _MATRIX,
        "covariances": {"type": "array", "items": _MATRIX},
        "objective": _NUMBER,
        "iterations": _INT,
        "stable": {"type": "boolean"},
        "restart_index": _INT,
        "outlier_count": _INT,
    },
}

SIMULATION_REPORT = {
    "type": "object",
    "required": ["scenario", "configs", "aggregates"],
    "properties": {
        "scenario": {
            "type": "object",
            "required": ["n", "p", "k", "contamination", "replications", "seed"],
            "properties": {
                "n": _INT, "p": _INT, "k": _INT,
                "contamination": _STR,
                "contamination_level": _NUMBER,
                "replications": _INT, "seed": _INT,
                "cov_scale": _NUMBER,
            },
        },
        "configs": {"type": "array", "items": _STR},
        "aggregates": {"type": "object"},
    },
}

INFLUENCE_SOLUTION = {
    "type": "object",
    "required": ["model", "solutions"],
    "properties": {
        "model": {
            "type": "object",
            "required": ["weights", "means", "variances"],
            "properties": {"weights": _VECTOR, "means": _VECTOR, "variances": _VECTOR},
        },
        "solutions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["beta", "a", "b", "pi1", "pi2", "mu1", "mu2",
                             "var1", "var2", "residual_norm"],
                "properties": {
                    "beta": _NUMBER, "a": _NUMBER, "b": _NUMBER,
                    "pi1": _NUMBER, "pi2": _NUMBER, "mu1": _NUMBER, "mu2": _NUMBER,
                    "var1": _NUMBER, "var2": _NUMBER, "residual_norm": _NUMBER,
                },
            },
        },
    },
}

IMAGE_SIDECAR = {
    "type": "object",
    "required": ["k", "config", "weights", "cluster_colors", "outlier_colors",
                 "pixels_per_cluster", "outliers_per_type", "total_outliers"],
    "properties": {
        "k": _INT,
        "config": {"type": "object"},
        "objective": _NUMBER,
        "weights": _VECTOR,
        "cluster_colors": _MATRIX,
        "outlier_colors": _MATRIX,
        "pixels_per_cluster": {"type": "array", "items": _INT},
        "outliers_per_type": {"type": "array", "items": _INT},
        "total_outliers": _INT,
    },
}

SCHEMAS = {
    "fit_result": FIT_RESULT,
    "simulation_report": SIMULATION_REPORT,
    "influence_solution": INFLUENCE_SOLUTION,
    "image_sidecar": IMAGE_SIDECAR,
}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
}


def _check(obj, schema: dict, path: str) -> None:
    required_type = schema.get("type")
    if required_type == "number":
        if isinstance(obj, bool) or not isinstance(obj, (int, float)):
            raise SchemaError(f"{path}: expected number, got {type(obj).__name__}")
    elif required_type == "integer":
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise SchemaError(f"{path}: expected integer, got {type(obj).__name__}")
    elif required_type is not None:
        if not isinstance(obj, _TYPES[required_type]):
            raise SchemaError(f"{path}: expected {required_type}, got {type(obj).__name__}")
    if "enum" in schema and obj not in schema["enum"]:
        raise SchemaError(f"{path}: {obj!r} not in {schema['enum']}")
    if required_type == "object":
        for key in schema.get("required", []):
            if key not in obj:
                raise SchemaError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                _check(obj[key], sub, f"{path}.{key}")
    elif required_type == "array" and "items" in schema:
        for i, item in enumerate(obj):
            _check(item, schema["items"], f"{path}[{i}]")


def validate(obj, schema_name: str) -> None:
    """Raise :class:`SchemaError` unless ``obj`` matches the named schema."""
    if schema_name not in SCHEMAS:
        raise KeyError(f"unknown schema {schema_name!r}")
    _check(obj, SCHEMAS[schema_name], "$")
