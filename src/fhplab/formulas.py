"""Prefix-tree first-order formulas over finite structures, evaluated to bitmasks.

Trees are plain nested lists (JSON-ready).  Terms:

    ["var", i]            positional variable
    ["const", v]          constant, normalized by the structure
    ["+", t, t]  ["*", t, t]  ["-", t, t]  ["neg", t]
    ["func", name, t...]  named function of the structure

Formulas:

    ["=", t, t]
    ["rel", name, t...]
    ["and", f...]  ["or", f...]  ["not", f]
    ["exists", i, f]  ["forall", i, f]
    ["true"]  ["false"]

A structure supplies `universe` (a nonempty sequence), `const_index(v)`
(the universe index of the element a constant names, ValueError when it
names none) and `tables()`, which returns `(functions, relations)`: dicts
name -> (arity, numpy array of shape (|U|,) * arity) over universe
indices.  A function table holds the index of each value, a relation
table holds bools.  The ring tags name functions of the structure, so
["+", s, t] is ["func", "+", s, t].  Quantifiers range over the whole
universe.

`evaluate_formula(structure, node, x_arity, y_arity, params)` reads a
tree phi(x; y) as one witness bitmask per parameter tuple b in params:
bit j of b's mask says whether phi(x_j; b) holds, where x_j is the j-th
tuple of universe^x_arity in lexicographic order.  This module alone
decides that order, the element-to-index conversion and the bit packing.

It first validates the whole tree against x_arity + y_arity free
variables: malformed nodes, bad or unbound variable indices (a variable
must be bound by a quantifier or be free), unknown names and wrong
arities raise ValueError before anything is evaluated, whether or not a
branch would be reached, and also when params is empty.  Each parameter
tuple must have y_arity elements, each read through
`structure.const_index`.  It then evaluates the tree once per chunk of
assignments rather than once per point: each free variable is an index
array that broadcasts over the chunk, functions and relations are fancy
indexing into the tables, and exists/forall add a trailing axis of
length |U| that `any`/`all` reduce.  A chunk holds at most
max(1, 2^16 / |U|^d) assignments, d the quantifier depth, so no
temporary exceeds max(2^16, |U|^d) cells.  numpy is imported inside the
evaluator, so importing this module loads none.
"""

from __future__ import annotations

import itertools

_CHUNK_CELLS = 1 << 16
_RING_FN = ("+", "*", "-", "neg")


def evaluate_formula(structure, node, x_arity, y_arity, params):
    """Witness masks of node(x; y): mask i has bit j set when node holds
    with variables 0, 1, ... bound to x_j followed by params[i].

    x_j is the j-th tuple of universe^x_arity in lexicographic order and
    each tuple of params holds y_arity universe elements.  The tree is
    validated against x_arity + y_arity free variables first.
    """
    import numpy as np

    functions, relations = structure.tables()
    compiler = _Compiler(structure, functions, relations, np)
    run = compiler.formula(node, frozenset(range(x_arity + y_arity)))
    params = _param_indices(structure, params, y_arity, np)

    size = len(structure.universe)
    n_rows, n_cols = len(params), size**x_arity
    xs = np.indices((size,) * x_arity).reshape(x_arity, n_cols).T
    out = np.empty((n_rows, n_cols), dtype=bool)
    cells = max(1, _CHUNK_CELLS // size**compiler.depth)
    cols = max(1, min(n_cols, cells))
    rows = max(1, cells // cols)
    for j in range(0, n_cols, cols):
        x = xs[j : j + cols]
        for i in range(0, n_rows, rows):
            p = params[i : i + rows]
            env = {v: x[None, :, v] for v in range(x_arity)}
            env.update((x_arity + v, p[:, v, None]) for v in range(y_arity))
            out[i : i + rows, j : j + cols] = run(env, 2)
    data = np.packbits(out, axis=1, bitorder="little").tobytes()
    width = (n_cols + 7) // 8
    return [
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]


def _param_indices(structure, params, y_arity, np):
    """params as a (len(params), y_arity) array of universe indices.

    const_index runs once per distinct int; any other value goes to it
    each time it occurs, so a bool or float is refused, not read as 1.
    Ints that are their own indices, as in F_p, are kept as they are.
    """
    for b in params:
        if len(b) != y_arity:
            raise ValueError(
                f"parameter tuple {b!r} has {len(b)} element(s), expected {y_arity}"
            )
    flat = list(itertools.chain.from_iterable(params))
    if set(map(type, flat)) <= {int}:
        index = {v: structure.const_index(v) for v in set(flat)}
        if any(v != i for v, i in index.items()):
            flat = map(index.__getitem__, flat)
    else:
        flat = [structure.const_index(v) for v in flat]
    cells = len(params) * y_arity
    return np.fromiter(flat, np.intp, cells).reshape(len(params), y_arity)


def _tag(node):
    if not isinstance(node, (list, tuple)) or not node or not isinstance(
        node[0], str
    ):
        raise ValueError(f"malformed formula node: {node!r}")
    return node[0]


def _expect_len(node, length):
    if len(node) != length:
        raise ValueError(
            f"malformed {node[0]!r} node: expected {length - 1} argument(s), "
            f"got {len(node) - 1}"
        )


def _var_index(node):
    i = node[1]
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"bad variable index {i!r}")
    return i


def _lookup(tables, kind, name, nargs):
    if not isinstance(name, str) or name not in tables:
        raise ValueError(f"unknown {kind} {name!r}")
    arity, table = tables[name]
    if nargs != arity:
        raise ValueError(f"{kind} {name!r} expects {arity} arguments, got {nargs}")
    return table


class _Compiler:
    """Validates a tree and turns it into closures.

    A term becomes run(env), a formula run(env, ndim).  env maps variable
    index -> index array; every array in env has ndim axes (the two
    assignment axes plus one per enclosing quantifier).  depth records
    the deepest quantifier nesting seen.
    """

    def __init__(self, structure, functions, relations, np):
        self.structure = structure
        self.functions = functions
        self.relations = relations
        self.np = np
        self.depth = 0

    def term(self, node, scope):
        tag = _tag(node)
        if tag == "var":
            _expect_len(node, 2)
            i = _var_index(node)
            if i not in scope:
                raise ValueError(f"unbound variable {i}")
            return lambda env: env[i]
        if tag == "const":
            _expect_len(node, 2)
            c = self.structure.const_index(node[1])
            return lambda env: c
        if tag in _RING_FN:
            name, args = tag, node[1:]
        elif tag == "func":
            if len(node) < 2:
                raise ValueError("malformed 'func' node: missing name")
            name, args = node[1], node[2:]
        else:
            raise ValueError(f"unknown term tag {tag!r}")
        table = _lookup(self.functions, "function", name, len(args))
        subs = [self.term(a, scope) for a in args]
        return lambda env: table[tuple(s(env) for s in subs)]

    def formula(self, node, scope, depth=0):
        np = self.np
        tag = _tag(node)
        if tag in ("true", "false"):
            _expect_len(node, 1)
            value = np.bool_(tag == "true")
            return lambda env, ndim: value
        if tag == "=":
            _expect_len(node, 3)
            left = self.term(node[1], scope)
            right = self.term(node[2], scope)
            return lambda env, ndim: np.equal(left(env), right(env))
        if tag == "rel":
            if len(node) < 2:
                raise ValueError("malformed 'rel' node: missing name")
            table = _lookup(self.relations, "relation", node[1], len(node) - 2)
            subs = [self.term(a, scope) for a in node[2:]]
            return lambda env, ndim: table[tuple(s(env) for s in subs)]
        if tag in ("and", "or"):
            subs = [self.formula(f, scope, depth) for f in node[1:]]
            op = np.logical_and if tag == "and" else np.logical_or
            unit = np.bool_(tag == "and")

            def connective(env, ndim):
                acc = unit
                for sub in subs:
                    acc = op(acc, sub(env, ndim))
                return acc

            return connective
        if tag == "not":
            _expect_len(node, 2)
            sub = self.formula(node[1], scope, depth)
            return lambda env, ndim: np.logical_not(sub(env, ndim))
        if tag in ("exists", "forall"):
            _expect_len(node, 3)
            i = _var_index(node)
            self.depth = max(self.depth, depth + 1)
            body = self.formula(node[2], scope | {i}, depth + 1)
            reduce = np.any if tag == "exists" else np.all
            axis = np.arange(len(self.structure.universe))

            def quantifier(env, ndim):
                inner = {v: a[..., None] for v, a in env.items()}
                inner[i] = axis.reshape((1,) * ndim + (-1,))
                value = body(inner, ndim + 1)
                # a body that reads no variable is 0-d, the same at every
                # element of the (nonempty) universe
                return reduce(value, axis=-1) if np.ndim(value) else value

            return quantifier
        raise ValueError(f"unknown formula tag {tag!r}")
