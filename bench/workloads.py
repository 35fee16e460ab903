"""The benchmark's workloads: their seeded input lists and per-op checks.

Each workload is a fixed list of input shapes (sizes).  The seed draws
every input of that shape: diagrams are scrambled (renamed points,
rotated and reordered curves and regions), presentations from a fixed
corpus are rewritten (generators renamed, relators rotated and possibly
inverted), support sets and Maslov samples are drawn at random.  So the
cost of a workload depends on its shapes, and only a little on the seed.

``build`` writes one JSON file per op and returns the ops, smallest first.
An op is a dict with ``label``, ``argv`` (for ``sutured_kit.cli.main``)
and ``check`` (what the output must be).  ``check_output`` checks one
output; it is independent of the code paths it checks: closed forms,
``oracle`` tables, a Bareiss determinant on plain ints, and the
constructed vertex sets and windings.
"""

import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

import builders

WORKLOADS = ("torus", "chain", "presentations", "support", "maslov")

# T(p,1;2) crosscheck sizes
TORUS_P = (8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24,
           25, 26, 28, 30, 31, 32, 34, 36, 38, 40, 42, 44, 46, 48, 50, 52,
           54, 56, 60, 120)
# T(1,0;2k+2) and the subcommands run on it; `spinc` at k = 10 would add
# another 1.5 s to a pass of about 6 s
CHAIN_OPS = tuple((k, ("check", "euler") if k == 10 else ("check", "euler", "spinc"))
                  for k in (3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8, 9, 10))
# (generators m, relator length): ten presentations of each, drawn once
# from a fixed corpus seed per class; the run seed rewrites them
PRESENTATION_CLASSES = ((8, 5), (9, 5), (10, 5), (11, 5), (12, 5), (8, 6), (9, 6))
PRESENTATIONS_PER_CLASS = 10
# (dimension, points); vertex-set kinds and --canonical alternate
SUPPORT_SHAPES = (
    [(2, n) for n in (8, 10, 12, 14, 16, 18, 20, 22, 24, 28, 32, 36, 44)]
    + [(3, n) for n in (8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20)]
    + [(4, n) for n in (8, 9, 10, 10, 11, 11, 12, 12, 13, 14, 16)])
# (kind, matrix size n, steps): two of the three kinds in each grid cell
MASLOV_KINDS = ("lagrangian_loop", "symplectic_loop", "spectral_flow")
MASLOV_SHAPES = tuple((MASLOV_KINDS[(cell + j) % 3], n, steps)
                      for cell, (steps, n) in enumerate(itertools.product(
                          (400, 800, 1200, 1600, 2000), (2, 3, 4, 5, 6)))
                      for j in range(2))


def _write(workdir, index, label, data):
    path = os.path.join(workdir, f"{index:03d}-{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))
    return path


def _torus(rng, workdir, sk):
    ops = []
    for i, p in enumerate(TORUS_P):
        data = builders.scramble(builders.torus_diagram(p), rng)
        builders.require_balanced(data, sk)
        d = _write(workdir, i, f"torus-p{p}", data)
        letter = rng.choice("abcdefgh")
        q = _write(workdir, i, f"power-p{p}", builders.power_presentation(p, letter))
        ops.append({"label": f"crosscheck T({p},1;2)", "argv": ["crosscheck", d, q],
                    "check": {"kind": "torus", "p": p}})
    return ops


def _chain(rng, workdir, sk):
    ops = []
    for i, (k, cmds) in enumerate(CHAIN_OPS):
        data = builders.scramble(builders.chain_diagram(k), rng)
        builders.require_balanced(data, sk)
        path = _write(workdir, i, f"chain-k{k}", data)
        for cmd in cmds:
            ops.append({"label": f"{cmd} T(1,0;{2 * k + 2})", "argv": [cmd, path],
                        "check": {"kind": f"chain_{cmd}", "k": k}})
    return ops


def _presentations(rng, workdir, sk):
    ops = []
    for m, length in PRESENTATION_CLASSES:
        corpus = random.Random(f"corpus:{m}:{length}")
        for _ in range(PRESENTATIONS_PER_CLASS):
            base = builders.random_presentation(corpus, m, length)
            data = builders.rewrite_presentation(base, rng)
            aug = abs(builders.bareiss_det(builders.exponent_matrix(data)))
            path = _write(workdir, len(ops), f"pres-m{m}-l{length}", data)
            ops.append({"label": f"torsion m={m} len={length}", "argv": ["torsion", path],
                        "check": {"kind": "torsion", "aug": aug}})
    return ops


def _support(rng, workdir, sk):
    ops = []
    for i, (d, n) in enumerate(SUPPORT_SHAPES):
        kinds = [k for k, (make, _) in builders.VERTEX_SETS.items()
                 if len(make(d, 1)) <= n]
        kind = kinds[i % len(kinds)]
        data, verts, symmetric = builders.support_set(rng, d, n, kind)
        path = _write(workdir, i, f"support-d{d}-n{n}-{kind}", data)
        canonical = i % 2 == 1
        argv = ["polytope", "--support", path] + (["--canonical"] if canonical else [])
        ops.append({"label": f"polytope d={d} N={n} {kind}", "argv": argv,
                    "check": {"kind": "support", "vertices": verts,
                              "symmetric": symmetric, "canonical": canonical,
                              "points": data["points"]}})
    return ops


def _maslov(rng, workdir, sk):
    ops = []
    for i, (kind, n, steps) in enumerate(MASLOV_SHAPES):
        gen = np.random.default_rng(rng.getrandbits(64))
        ints = [int(x) for x in gen.integers(-3, 4, size=n)]
        if kind == "lagrangian_loop":
            data, key, want = builders.lagrangian_loop(gen, n, steps, ints)
        elif kind == "symplectic_loop":
            data, key, want = builders.unitary_loop(gen, n, steps, ints)
        else:
            data, key, want = builders.symmetric_path(gen, n, steps)
        path = _write(workdir, i, f"maslov-{kind}-n{n}-s{steps}", data)
        ops.append({"label": f"maslov {kind} n={n} steps={steps}", "argv": ["maslov", path],
                    "check": {"kind": "maslov", "key": key, "want": want}})
    return ops


BUILDERS = {"torus": _torus, "chain": _chain, "presentations": _presentations,
            "support": _support, "maslov": _maslov}


def build(workload, seed, workdir, sk):
    """Write the inputs of one workload for one seed; return its ops."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, workdir, sk)


# -- checks ---------------------------------------------------------------------


def check_output(check, out, sk):
    """None when ``out`` (the parsed stdout) is right, else a reason."""
    kind = check["kind"]
    if kind == "torus":
        p = check["p"]
        want = [([i], [], 1) for i in range(p)]
        got = sorted((t["exp_free"], t["exp_torsion"], t["coeff"]) for t in out["euler"])
        if got != want:
            return "Euler polynomial is not 1 + h + ... + h^(p-1)"
        if out["h1_diagram"] != {"free_rank": 1, "torsion": []}:
            return f"H_1 is {out['h1_diagram']}, not Z"
        if out["match"] is not True or out["mode"] != "plain":
            return f"crosscheck gave match={out['match']} mode={out['mode']}"
        return None
    if kind == "chain_check":
        want = {"valid": True, "balanced": True, "admissible": True}
        return None if out == want else f"check gave {out}"
    if kind == "chain_euler":
        k = check["k"]
        ranks = sk.oracle.solid_torus_sfh(1, 0, 2 * k + 2).values_in_order()
        terms = sorted((t["exp_free"], t["coeff"]) for t in out["polynomial"])
        got = [abs(c) for _, c in terms]
        return None if got == ranks else f"|coefficients| {got} != {ranks}"
    if kind == "chain_spinc":
        k = check["k"]
        got = sorted(len(c) for c in out["classes"])
        want = sorted(math.comb(k, i) for i in range(k + 1))
        return None if got == want else f"class sizes {got} != {want}"
    if kind == "torsion":
        aug = abs(sum(t["coeff"] for t in out["torsion"]))
        return None if aug == check["aug"] else f"|aug tau| = {aug}, |det| = {check['aug']}"
    if kind == "support":
        verts = [tuple(v) for v in check["vertices"]]
        points = [tuple(p) for p in check["points"]]
        if check["canonical"]:
            low = min(verts)
            verts = [tuple(a - b for a, b in zip(v, low)) for v in verts]
            points = [tuple(a - b for a, b in zip(p, low)) for p in points]
        got = sorted(tuple(Fraction(x) for x in v) for v in out["vertices"])
        if got != sorted(verts):
            return "vertex set differs from the constructed one"
        for f in out["facets"]:
            off = Fraction(f["offset"])
            if any(sum(a * b for a, b in zip(f["normal"], p)) < off for p in points):
                return "an input point violates a facet"
        for e in out["equations"]:
            off = Fraction(e["offset"])
            if any(sum(a * b for a, b in zip(e["normal"], p)) != off for p in points):
                return "an input point violates an equation"
        if out["symmetric"] != check["symmetric"]:
            return f"symmetric is {out['symmetric']}"
        return None
    if kind == "maslov":
        got = out.get(check["key"])
        return None if got == check["want"] else f"{check['key']} {got} != {check['want']}"
    raise ValueError(f"unknown check {kind!r}")
