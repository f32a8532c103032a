"""Reference oracle for fhplab.formulas: the point-by-point tree walker.

This is the evaluator the library used before formulas were evaluated as
arrays.  It walks the tree once per assignment with a dict env of
universe elements, and reads the structure's plain data: arithmetic mod
p for a FieldStructure, the function and relation dicts for a
FiniteStructure.  Tests compare the array evaluator with it point by
point.  It checks only what it reaches, so it is not a validator.
"""

from fhplab.pseudofield import FieldStructure

_RING_FN = ("+", "*", "-", "neg")


def _tag(node):
    if not isinstance(node, (list, tuple)) or not node or not isinstance(
        node[0], str
    ):
        raise ValueError(f"malformed formula node: {node!r}")
    return node[0]


def _const(structure, v):
    if isinstance(structure, FieldStructure):
        return int(v) % structure.p
    if v not in set(structure.universe):
        raise ValueError(f"constant {v!r} not in universe")
    return v


def _fn(structure, name, args):
    if isinstance(structure, FieldStructure):
        p = structure.p
        ops = {
            "+": lambda a, b: (a + b) % p,
            "*": lambda a, b: (a * b) % p,
            "-": lambda a, b: (a - b) % p,
            "neg": lambda a: (-a) % p,
        }
        if name not in ops:
            raise ValueError(f"unknown function {name!r}")
        return ops[name](*args)
    if name not in structure.functions:
        raise ValueError(f"unknown function {name!r}")
    arity, table = structure.functions[name]
    if len(args) != arity:
        raise ValueError(f"function {name!r} expects {arity} arguments")
    return table[tuple(args)]


def _rel(structure, name, args):
    relations = {} if isinstance(structure, FieldStructure) else structure.relations
    if name not in relations:
        raise ValueError(f"unknown relation {name!r}")
    arity, rows = relations[name]
    if len(args) != arity:
        raise ValueError(f"relation {name!r} expects {arity} arguments")
    return tuple(args) in rows


def evaluate_term(structure, node, env: dict):
    tag = _tag(node)
    if tag == "var":
        i = node[1]
        if i not in env:
            raise ValueError(f"unbound variable {i}")
        return env[i]
    if tag == "const":
        return _const(structure, node[1])
    if tag in _RING_FN:
        args = [evaluate_term(structure, a, env) for a in node[1:]]
        return _fn(structure, tag, args)
    if tag == "func":
        args = [evaluate_term(structure, a, env) for a in node[2:]]
        return _fn(structure, node[1], args)
    raise ValueError(f"unknown term tag {tag!r}")


def evaluate_formula(structure, node, env: dict) -> bool:
    tag = _tag(node)
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag == "=":
        return evaluate_term(structure, node[1], env) == evaluate_term(
            structure, node[2], env
        )
    if tag == "rel":
        args = [evaluate_term(structure, a, env) for a in node[2:]]
        return _rel(structure, node[1], args)
    if tag == "and":
        return all(evaluate_formula(structure, f, env) for f in node[1:])
    if tag == "or":
        return any(evaluate_formula(structure, f, env) for f in node[1:])
    if tag == "not":
        return not evaluate_formula(structure, node[1], env)
    if tag in ("exists", "forall"):
        i = node[1]
        sub = node[2]
        had = i in env
        old = env.get(i)
        try:
            if tag == "exists":
                for v in structure.universe:
                    env[i] = v
                    if evaluate_formula(structure, sub, env):
                        return True
                return False
            for v in structure.universe:
                env[i] = v
                if not evaluate_formula(structure, sub, env):
                    return False
            return True
        finally:
            if had:
                env[i] = old
            else:
                env.pop(i, None)
    raise ValueError(f"unknown formula tag {tag!r}")
