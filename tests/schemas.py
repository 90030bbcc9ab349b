"""JSON Schemas for every file format and CLI payload the package emits.

``tests/test_schemas.py`` checks the package's files and reports against them.

Complex numbers are always [re, im] pairs; indices in files are 0-based.
"""

COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CVECTOR = {"type": "array", "items": COMPLEX_PAIR, "minItems": 1}

CMATRIX = {"type": "array", "items": CVECTOR, "minItems": 1}

BASIS_SET = {
    "type": "object",
    "required": ["dim", "bases"],
    "properties": {
        "dim": {"type": "integer", "minimum": 1},
        "bases": {"type": "array", "items": CMATRIX, "minItems": 1},
    },
    "additionalProperties": False,
}

STRATEGY_V2 = {
    "type": "object",
    "required": ["format", "dim", "bases", "generators", "weights"],
    "properties": {
        "format": {"const": "meanking-strategy-v2"},
        "dim": {"type": "integer", "minimum": 2},
        "bases": {"type": "array", "items": CMATRIX, "minItems": 1},
        # generators[b][j] is g[b, j], of d*d entries; eta_x = sum_b g[b, x(b)]
        "generators": {"type": "array", "items": CMATRIX, "minItems": 1},
        # one number when every guessing function has it, else one per guessing function
        "weights": {
            "oneOf": [
                {"type": "number", "exclusiveMinimum": 0},
                {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 1},
            ],
        },
    },
    "additionalProperties": False,
}

# the v1 layout, which load_strategy still reads and save_strategy writes for a
# strategy given as its table: one entry per guessing function
STRATEGY = {
    "type": "object",
    "required": ["dim", "bases", "omega", "entries"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2},
        "bases": {"type": "array", "items": CMATRIX, "minItems": 1},
        "omega": CVECTOR,
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["x", "eta", "p", "residual"],
                "properties": {
                    "x": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                    "eta": CVECTOR,
                    "p": {"type": "number", "minimum": 0},
                    "residual": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
            "minItems": 1,
        },
    },
    "additionalProperties": False,
}

ATTACK = {
    "type": "object",
    "required": ["d", "n", "d_E", "psi_abe", "kraus"],
    "properties": {
        "d": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
        "d_E": {"type": "integer", "minimum": 1},
        "psi_abe": CVECTOR,
        "kraus": {"type": "array", "items": CMATRIX, "minItems": 1},
    },
    "additionalProperties": False,
}

TRANSCRIPT_HEADER = {
    "type": "object",
    "required": ["format", "config", "test_indices", "accepted"],
    "properties": {
        "format": {"const": "meanking-transcript-v1"},
        "config": {
            "type": "object",
            "required": ["d", "n", "rounds", "test_fraction", "seed"],
            "properties": {
                "d": {"type": "integer", "minimum": 2},
                "n": {"type": "integer", "minimum": 1},
                "rounds": {"type": "integer", "minimum": 1},
                "test_fraction": {"type": "number", "minimum": 0, "maximum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "test_indices": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "accepted": {"type": "boolean"},
    },
    "additionalProperties": False,
}

TRANSCRIPT_RECORD = {
    "type": "object",
    "required": ["b", "i", "x", "i_prime"],
    "properties": {
        "b": {"type": "integer", "minimum": 0},
        "i": {"type": "integer", "minimum": 0},
        "x": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "i_prime": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

VALIDATION_REPORT = {
    "type": "object",
    "required": [
        "orthonormal",
        "unbiased",
        "nondegenerate",
        "span_rank",
        "classical_model",
        "worst_violation",
    ],
    "properties": {
        "orthonormal": {"type": "boolean"},
        "unbiased": {"type": "boolean"},
        "nondegenerate": {"type": "boolean"},
        "span_rank": {"type": "integer", "minimum": 0},
        "classical_model": {"type": "boolean"},
        "worst_violation": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

COMMUTANT_REPORT = {
    "type": "object",
    "required": ["dim", "n", "solution_dim", "constraint_rank", "spectral_gap", "tol"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2},
        "n": {"type": "integer", "minimum": 1},
        "solution_dim": {"type": "integer", "minimum": 1},
        "constraint_rank": {"type": "integer", "minimum": 0},
        "spectral_gap": {"type": "number", "minimum": 0, "maximum": 1},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "witness_identity_deviation": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

ATTACK_REPORT = {
    "type": "object",
    "required": ["detection_probability", "leakage", "per_outcome"],
    "properties": {
        "detection_probability": {"type": "number"},
        "leakage": {"type": "number", "minimum": 0},
        "per_outcome": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["b", "i", "prob", "guess_error"],
                "properties": {
                    "b": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "i": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                    "prob": {"type": "number", "minimum": 0},
                    "guess_error": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "curve": {"type": "array"},
    },
    "additionalProperties": False,
}

RUN_SUMMARY = {
    "type": "object",
    "required": ["accepted", "agreement_rate", "instances", "tests", "key_length"],
    "properties": {
        "accepted": {"type": "boolean"},
        "agreement_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "instances": {"type": "integer", "minimum": 0},
        "tests": {"type": "integer", "minimum": 0},
        "key_length": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

MANIFEST = {
    "type": "object",
    "required": ["command", "version", "config", "inputs", "outputs"],
    "properties": {
        "command": {"type": "string"},
        "version": {"type": "string"},
        "config": {"type": "object"},
        "inputs": {"type": "object", "additionalProperties": {"type": "string"}},
        "outputs": {"type": "object", "additionalProperties": {"type": "string"}},
    },
    "additionalProperties": False,
}

CLI_OUTPUT = {
    "type": "object",
    "required": ["report", "manifest"],
    "properties": {"report": {"type": "object"}, "manifest": MANIFEST},
    "additionalProperties": False,
}
