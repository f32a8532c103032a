"""The family builders written point by point, as the oracle for
`fhplab.constructs`.

Each builder here numbers the ground points by enumerating them with
itertools and collects every member as a frozenset by scanning all
points, so it shares nothing with the library's closed-form masks.  Each
returns (ground_size, members, labels).
"""

import itertools
import math


def block(k, r, m):
    point_index = {}
    for blocks in itertools.combinations(range(r), k):
        for slots in itertools.product(range(m), repeat=k):
            point_index[frozenset(zip(blocks, slots))] = len(point_index)
    members, labels = [], []
    for b in range(r):
        for s in range(m):
            members.append(
                frozenset(idx for point, idx in point_index.items() if (b, s) in point)
            )
            labels.append(f"S[{b},{s}]")
    return len(point_index), members, labels


def tp2(k, m, d):
    functions = list(itertools.product(range(m), repeat=k))
    members, labels = [], []
    for i in range(k):
        for j in range(m):
            window = {(j + t) % m for t in range(d - 1)}
            members.append(
                frozenset(idx for idx, f in enumerate(functions) if f[i] in window)
            )
            labels.append(f"S[{i},{j}]")
    return len(functions), members, labels


def cross(n):
    members = [
        frozenset(i * n + j for i in range(n) for j in range(n) if i == t or j == t)
        for t in range(n)
    ]
    return n * n, members, [f"V[{t}]" for t in range(n)]


def caps(W, D):
    strings = []
    for L in range(1, D + 1):
        strings.extend(itertools.product(range(W), repeat=L))
    members, labels = [], []
    for i in range(D):
        for j in range(W):
            members.append(
                frozenset(idx for idx, s in enumerate(strings) if len(s) > i and s[i] == j)
            )
            labels.append(f"F[{i},{j}]")
    return len(strings), members, labels


def shattered(m):
    npoints = 2**m
    members, labels = [], []
    for a, b in itertools.permutations(range(m), 2):
        members.append(
            frozenset(e for e in range(npoints) if (e >> a) & 1 and not (e >> b) & 1)
        )
        labels.append(f"P[{a},{b}]")
    return npoints, members, labels
