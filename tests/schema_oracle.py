"""The per-function schema check that ``QueryFamily.check_schema`` replaced,
kept as its reference: each function in turn is checked for a coordinate out
of range, then a monotone coordinate that is not Boolean, then a value out of
range in coordinate order."""


def check_schema(functions, schema):
    schema = tuple(int(a) for a in schema)
    for f in functions:
        if f.coords and max(f.coords) >= len(schema):
            raise ValueError("schema mismatch: coordinate index out of range")
        if f.kind == "monotone" and any(schema[c] != 2 for c in f.coords):
            raise ValueError("monotone marginals need Boolean coordinates")
        for c, v in zip(f.coords, f.assigned):
            if v >= schema[c]:
                raise ValueError(f"schema mismatch: value {v} out of range for coordinate {c + 1}")
