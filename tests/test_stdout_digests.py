"""Stdout bytes and exit codes of the CLI, pinned by sha256.

Every subcommand runs on every bundled fixture it accepts, plus a few
oracle and error cases and twenty seeded random support sets of dimension
1-6 (some of them lower-dimensional in their ambient space).  No bundled
input has torsion in H_1, so ``euler`` and ``spinc`` also run on the lens
diagrams L(p,1) minus a ball (H_1 = Z/p) and ``torsion`` on twelve seeded
random presentations, most of them with torsion in H_1: these pin the
torsion tie-break of the +-h normal form that ``det_group_ring`` takes
from ``abelian._key_codec``.  They do not pin ``doteq_normalize``, which
the CLI calls only in ``crosscheck --allow-inversion`` after the plain
match fails, a case no pair here reaches:
``test_cli.py::TestCrosscheck::test_inverted_mode_over_torsion`` pins its
bytes over Z/7, and ``tests/test_normal_form_ints.py`` holds its
tie-break to the tuple oracle.  ``maslov`` runs on seeded
loops and paths with object, number and mixed entries, with ``--kind``
and ``--samples``, and on malformed samples.  A change to
the library that should not move any output must leave every digest in
place.  To re-pin after an intended output change, run

    PYTHONPATH=src python tests/test_stdout_digests.py

and paste the printed table over ``DIGESTS``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import (fixture_path, lagrangian_loop, paired_names, random_symmetric,
                      unitary_group_loop)
from h1_oracle import lens_diagram
from sutured_kit import cli, fixtures


def _kinds(kind):
    return [f.name for f in fixtures.FIXTURES if f.kind == kind]


def _random_support(seed):
    """Distinct lattice points of dimension 1 + seed % 6; every fifth set
    lies on an affine subspace of lower dimension."""
    rng = random.Random(seed)
    r = 1 + seed % 6
    k = max(0, r - 1 - rng.randrange(r)) if seed % 5 == 2 else r
    base = [rng.randint(-3, 3) for _ in range(r)]
    span = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(k)]
    pts = set()
    for _ in range(rng.randint(3, 14 if r < 6 else 10)):
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        pts.add(tuple(b + sum(c * v[t] for c, v in zip(coeffs, span))
                      for t, b in enumerate(base)))
    pts = sorted(pts)
    rng.shuffle(pts)
    return {"dimension": r, "points": [list(p) for p in pts]}


def _random_presentation(seed):
    """Deficiency one on 2-4 generators, one inclusion word a...; one
    relator is b^k times a conjugate of b^(+-1), so H_1 usually has torsion."""
    rng = random.Random(seed)
    names = "abcd"[:2 + seed % 3]

    def word(n, letters=names):
        out = []
        while len(out) < n:
            x = rng.choice((str.lower, str.upper))(rng.choice(letters))
            if not out or out[-1] != x.swapcase():
                out.append(x)
        return out

    u = word(rng.randint(1, 2))
    relators = [word(rng.randint(3, 6)) for _ in range(len(names) - 2)]
    relators.append(["b"] * rng.randint(3, 4) + u + [rng.choice("bB")]
                    + [x.swapcase() for x in reversed(u)])
    rng.shuffle(relators)
    return {"generators": list(names), "relators": [" ".join(w) for w in relators],
            "boundary_genus": 1,
            "sigma_images": [" ".join(["a"] + word(rng.randint(0, 2), names[1:]))]}


def cases(workdir):
    """(case id, argv) for every pinned run; writes its inputs to workdir."""
    out = []
    for name in _kinds("diagram"):
        for cmd in ("check", "generators", "spinc", "euler"):
            out.append((f"{cmd} {name}", [cmd, fixture_path(name)]))
        for extra in ([], ["--canonical"]):
            out.append((" ".join(["polytope --diagram", name] + extra),
                        ["polytope", "--diagram", fixture_path(name)] + extra))
    for name in _kinds("presentation"):
        out.append((f"torsion {name}", ["torsion", fixture_path(name)]))
    for name in _kinds("support"):
        for extra in ([], ["--canonical"]):
            out.append((" ".join(["polytope --support", name] + extra),
                        ["polytope", "--support", fixture_path(name)] + extra))
    for dname, pname in paired_names():
        for extra in ([], ["--allow-inversion"]):
            out.append((" ".join(["crosscheck", dname, pname] + extra),
                        ["crosscheck", fixture_path(dname), fixture_path(pname)] + extra))
    out.append(("crosscheck t104 t212_pres",
                ["crosscheck", fixture_path("t104"), fixture_path("t212_pres")]))
    for argv in (["oracle", "--solid-torus", "2", "1", "2"],
                 ["oracle", "--solid-torus", "1", "0", "8"],
                 ["oracle", "--closed", "3", "2"],
                 ["oracle", "--connected-sum", "2", "3"],
                 ["oracle", "--connected-sum", "2", "3", "--with-closed"],
                 ["oracle"],
                 []):
        out.append((" ".join(["argv:"] + argv), argv))
    for cmd, name in (("euler", "t312_pres"), ("torsion", "t212"),
                      ("check", "pretzel222")):
        out.append((f"{cmd} {name}", [cmd, fixture_path(name)]))
    out.append(("polytope --support t212", ["polytope", "--support", fixture_path("t212")]))
    for tag, payload in (("dim7", {"dimension": 7, "points": [[0] * 7]}),
                         ("empty", {"dimension": 2, "points": []})):
        path = Path(workdir) / f"{tag}.json"
        path.write_text(json.dumps(payload))
        out.append((f"polytope --support {tag}", ["polytope", "--support", str(path)]))
    for seed in range(20):
        path = Path(workdir) / f"random{seed}.json"
        path.write_text(json.dumps(_random_support(seed)))
        extra = ["--canonical"] if seed % 2 else []
        out.append((" ".join([f"polytope --support random{seed}"] + extra),
                    ["polytope", "--support", str(path)] + extra))
    for p in range(2, 7):
        path = Path(workdir) / f"lens{p}.json"
        path.write_text(json.dumps(lens_diagram(p)))
        for cmd in ("euler", "spinc"):
            out.append((f"{cmd} lens{p}", [cmd, str(path)]))
    for seed in range(12):
        path = Path(workdir) / f"pres{seed}.json"
        path.write_text(json.dumps(_random_presentation(seed)))
        out.append((f"torsion pres{seed}", ["torsion", str(path)]))
    for tag, payload in _maslov_inputs():
        path = Path(workdir) / f"maslov-{tag}.json"
        path.write_text(json.dumps(payload))
        out.append((f"maslov {tag}", ["maslov", str(path)]))
    loop = str(Path(workdir) / "maslov-lagrangian0.json")
    for extra in (["--samples", "48"], ["--samples", "7"], ["--kind", "symplectic_loop"],
                  ["--kind", "lagrangian_loop", "--samples", "48"]):
        out.append((" ".join(["maslov lagrangian0"] + extra), ["maslov", loop] + extra))
    flow = str(Path(workdir) / "maslov-flow1 object.json")
    for extra in (["--kind", "lagrangian_loop"], ["--samples", "40"], ["--samples", "41"]):
        out.append((" ".join(["maslov flow1 object"] + extra), ["maslov", flow] + extra))
    path = Path(workdir) / "maslov-nokind.json"
    path.write_text(json.dumps({"samples": _entries(_loop_samples(0, "lagrangian"), "object")}))
    for kind in ("lagrangian_loop", "symplectic_loop"):
        out.append((f"maslov nokind --kind {kind}", ["maslov", str(path), "--kind", kind]))
    return out


def _entries(mats, form):
    """Matrices as JSON rows: entries as {"re": x, "im": y} objects, as plain
    numbers (the real part), or as both, alternating along each row."""
    def entry(z, j):
        if form == "number" or (form == "mixed" and j % 2):
            return z.real
        return {"re": z.real, "im": z.imag}
    return [[[entry(z, j) for j, z in enumerate(row)] for row in m.tolist()] for m in mats]


def _loop_samples(seed, kind):
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    ints = [int(x) for x in rng.integers(-2, 3, size=n)]
    build = lagrangian_loop if kind == "lagrangian" else unitary_group_loop
    return build(rng, n, 48, ints)[0]


def _flow_samples(seed):
    rng = np.random.default_rng(100 + seed)
    n = 2 + seed % 3
    signs = np.where(np.arange(n) <= seed, -1.0, 1.0)
    a = random_symmetric(rng, n, signs * rng.uniform(0.5, 2, n))
    b = random_symmetric(rng, n, rng.uniform(0.5, 2, n))
    return [(1 - t) * a + t * b for t in np.linspace(0.0, 1.0, 41)]


def _maslov_inputs():
    """(tag, JSON payload) of the pinned ``maslov`` runs: seeded loops and
    paths with object, number and mixed entries, then malformed inputs."""
    out = []
    for seed in range(3):
        for kind in ("lagrangian", "symplectic"):
            out.append((f"{kind}{seed}", {"kind": f"{kind}_loop",
                                          "samples": _entries(_loop_samples(seed, kind), "object")}))
        for form in ("number", "object", "mixed"):
            out.append((f"flow{seed} {form}", {"kind": "spectral_flow",
                                                "samples": _entries(_flow_samples(seed), form)}))
    diagonal = [np.diag([np.exp(1j * np.pi * t), np.exp(-2j * np.pi * t)]) for t in np.linspace(0, 1, 33)]
    out.append(("diagonal mixed", {"kind": "lagrangian_loop", "samples": [
        [[{"re": z.real, "im": z.imag} if z else 0 for z in row] for row in m.tolist()]
        for m in diagonal]}))
    flow = _entries(_flow_samples(0), "number")
    loop = _entries(_loop_samples(1, "lagrangian"), "object")

    def edit(samples, k, i, j, value):
        samples = json.loads(json.dumps(samples))
        if j is None:
            samples[k][i] = value
        else:
            samples[k][i][j] = value
        return samples

    for tag, kind, samples in (
            ("ragged rows", "spectral_flow", edit(flow, 3, 1, None, [1.0])),
            ("ragged objects", "lagrangian_loop", edit(loop, 5, 0, None, [])),
            ("unequal sizes", "spectral_flow", flow[:4] + [[[1.0]]] + flow[5:]),
            ("nan number", "spectral_flow", edit(flow, 7, 0, 1, float("nan"))),
            ("nan object", "lagrangian_loop", edit(loop, 2, 1, 1, {"re": 0.5, "im": float("nan")})),
            ("inf object", "lagrangian_loop", edit(loop, 9, 1, 0, {"re": float("-inf")})),
            ("true number", "spectral_flow", edit(flow, 2, 0, 0, True)),
            ("true object", "lagrangian_loop", edit(loop, 4, 1, 1, {"re": True, "im": 0.0})),
            ("string number", "spectral_flow", edit(flow, 6, 1, 0, "1")),
            ("string object", "lagrangian_loop", edit(loop, 1, 0, 0, {"re": "1", "im": 0.0})),
            ("huge number", "spectral_flow", edit(flow, 5, 1, 1, 10 ** 400)),
            ("huge object", "lagrangian_loop", edit(loop, 8, 0, 1, {"re": 0.0, "im": -10 ** 400})),
            ("row not a list", "spectral_flow", edit(flow, 1, 0, None, 5)),
            ("sample not a list", "spectral_flow", flow[:1] + [5]),
            ("samples not a list", "spectral_flow", {"0": 1}),
            ("empty", "lagrangian_loop", [])):
        out.append((tag, {"kind": kind, "samples": samples}))
    return out


def digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


DIGESTS = {
    'check disk':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators disk':
        ('ad0662036bba7712819161a3ec782ee9b75674a1d9202f95a1bfd27e9cfc0a7c', 0),
    'spinc disk':
        ('c16f7be610234c98db1cc776928f02f5dfbec39dcb067abd33900344997fe46e', 0),
    'euler disk':
        ('3ccb8a61a6ec9b693d5bc0714672192300aa94c8eb0be04c7bb988b87cfd7fec', 0),
    'polytope --diagram disk':
        ('421b457d9fcbf3426e217970f4639f3f8c28c5d3f0769be74022e3a1e3c7e26c', 0),
    'polytope --diagram disk --canonical':
        ('421b457d9fcbf3426e217970f4639f3f8c28c5d3f0769be74022e3a1e3c7e26c', 0),
    'check annulus':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators annulus':
        ('ad0662036bba7712819161a3ec782ee9b75674a1d9202f95a1bfd27e9cfc0a7c', 0),
    'spinc annulus':
        ('ec172ba030fbda6bf74571fa4ee821b75a7683cd70d3edfff004dc28778f952b', 0),
    'euler annulus':
        ('66c7a25af889ee6222adc73f6dcab13df6fb64c6efe7bf36b6556d6900368cc0', 0),
    'polytope --diagram annulus':
        ('5c03805d000275cbf3a2d6e8a12d6d017c5ca346d0b008e8d884c99b424fa1c7', 0),
    'polytope --diagram annulus --canonical':
        ('5c03805d000275cbf3a2d6e8a12d6d017c5ca346d0b008e8d884c99b424fa1c7', 0),
    'check t104':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators t104':
        ('eed32ab184fb0f3fc713398a355854b359887c5c68778ccd58ae7fee6a479064', 0),
    'spinc t104':
        ('d7cc98ab4caa0bbfbd631b8c786689c6c88be534c61c1c51f8a54ece6de354da', 0),
    'euler t104':
        ('0ac28eeaf22fa41d084d894f19498990e72c05f95c7df378e5bdfb08a95a8873', 0),
    'polytope --diagram t104':
        ('c6dfc259d7a50e5636dc0f83c2affdcfb7753e891f058654af61afc899245624', 0),
    'polytope --diagram t104 --canonical':
        ('c6dfc259d7a50e5636dc0f83c2affdcfb7753e891f058654af61afc899245624', 0),
    'check t106':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators t106':
        ('3d39d2731f6370ad894997387f9c0e77b99d7978165f7a4b64dc8bd131236371', 0),
    'spinc t106':
        ('e891393a0f3aa783a0da264d323c6450059b6277f0b4abe2c3423ac4b2108658', 0),
    'euler t106':
        ('c6f0cfe72a65fa776015935064835dfaedc21d72e2a6c04ffbb830d15e3a4413', 0),
    'polytope --diagram t106':
        ('b7caea273b2b10182d616b52470fe892723a4a2ac023dcb1d34a1cde3c3bb8b8', 0),
    'polytope --diagram t106 --canonical':
        ('b7caea273b2b10182d616b52470fe892723a4a2ac023dcb1d34a1cde3c3bb8b8', 0),
    'check t212':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators t212':
        ('7cd3e9c7d80f7dacea88cfb8d4f2a0eb480c6e5e84282a33330be294f655804b', 0),
    'spinc t212':
        ('d7cc98ab4caa0bbfbd631b8c786689c6c88be534c61c1c51f8a54ece6de354da', 0),
    'euler t212':
        ('1cfb4d653d12fdcd0e7d20a3c9c2f2ba9f4c01e71c641f2d3fdfc88bc4065e9f', 0),
    'polytope --diagram t212':
        ('c6dfc259d7a50e5636dc0f83c2affdcfb7753e891f058654af61afc899245624', 0),
    'polytope --diagram t212 --canonical':
        ('c6dfc259d7a50e5636dc0f83c2affdcfb7753e891f058654af61afc899245624', 0),
    'check t312':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators t312':
        ('91f42a90012b69509345b23b808f14978d363f281a2ccc366b2f441cb2420a3e', 0),
    'spinc t312':
        ('30a7e07c04aea81b176ae08164c0bfc90cd123ee6cefcd1dd22164c616d8488c', 0),
    'euler t312':
        ('b136a0f6efe1a452f64a64a9e8fb172eba2196f8fe43f2dd1e3fae131b8e58ca', 0),
    'polytope --diagram t312':
        ('b7caea273b2b10182d616b52470fe892723a4a2ac023dcb1d34a1cde3c3bb8b8', 0),
    'polytope --diagram t312 --canonical':
        ('b7caea273b2b10182d616b52470fe892723a4a2ac023dcb1d34a1cde3c3bb8b8', 0),
    'check hopf_grid':
        ('9ffc9e37dc7d6192805d29a572fd42cf820be0cb174e834532aedb96ee02b72b', 0),
    'generators hopf_grid':
        ('843e97013e4ea626edb22396d7973d2dc9423d7cfa52bd9634ea7b794402565c', 0),
    'spinc hopf_grid':
        ('a400aec41a0f795b0203015a3a28d6958fc082daf52b719b7b145d1643f66a4f', 0),
    'euler hopf_grid':
        ('6a3891c101e7b1b91a4be52e8028b4c8e7c8720212a8a2d6afc7f711e4f31a37', 0),
    'polytope --diagram hopf_grid':
        ('5765556705a9ebfb75dd34b7a9b160a48501e0e178cb4ccb2f7f36f5d75a5f58', 0),
    'polytope --diagram hopf_grid --canonical':
        ('5765556705a9ebfb75dd34b7a9b160a48501e0e178cb4ccb2f7f36f5d75a5f58', 0),
    'torsion disk_pres':
        ('9a49ee6d59dd4dae34d0f10f44d0ff28394b46b3cbc2a4f39a3924bdbc891ac1', 0),
    'torsion annulus_pres':
        ('d8698e6407d2d435ff6018727d29b6b7241cda8fa0690eb7e89a28f53585dab3', 0),
    'torsion t212_pres':
        ('2e3bcb4e318293a05f9af8c24982bc1314692b0414b89d436bad9d7f3ce1988a', 0),
    'torsion t312_pres':
        ('dd2dbf4f70bd5156b130336febc4e5bc07a054ae34a55ce242e97beda1aa999d', 0),
    'torsion trefoil_pres':
        ('dd547dd06132d26104878fd4256890d22f83f4ea43a9ba17c5a12358d754056d', 0),
    'polytope --support pretzel222':
        ('3144ee1e8defcf2c2390816d1c1d1a45113ffc62687b26227779ede55b03c331', 0),
    'polytope --support pretzel222 --canonical':
        ('3144ee1e8defcf2c2390816d1c1d1a45113ffc62687b26227779ede55b03c331', 0),
    'crosscheck disk disk_pres':
        ('95b1ead316bd435332a87bf66c5529fb61c7b8251118ed42ae60f84a3ef86b77', 0),
    'crosscheck disk disk_pres --allow-inversion':
        ('95b1ead316bd435332a87bf66c5529fb61c7b8251118ed42ae60f84a3ef86b77', 0),
    'crosscheck annulus annulus_pres':
        ('572c092322757b52f43f1e47df687a537075bbebaeb9eb85d4d3bfad5a37ef8e', 0),
    'crosscheck annulus annulus_pres --allow-inversion':
        ('572c092322757b52f43f1e47df687a537075bbebaeb9eb85d4d3bfad5a37ef8e', 0),
    'crosscheck t212 t212_pres':
        ('3f6ed72db18aef0b0ed050cd9ca839a51ee8c6922e5ac028c6325af02251d63f', 0),
    'crosscheck t212 t212_pres --allow-inversion':
        ('3f6ed72db18aef0b0ed050cd9ca839a51ee8c6922e5ac028c6325af02251d63f', 0),
    'crosscheck t312 t312_pres':
        ('4166b51885053798e658628316db413d3ad95d192c51e956ce9fd2dbf36281ef', 0),
    'crosscheck t312 t312_pres --allow-inversion':
        ('4166b51885053798e658628316db413d3ad95d192c51e956ce9fd2dbf36281ef', 0),
    'crosscheck t104 t212_pres':
        ('920d49b1c1e32bce6e35a439d46f2abac6eb0f3b03e80b8f9f5d63496608ed06', 0),
    'argv: oracle --solid-torus 2 1 2':
        ('c8ba2a3ce6f352d7a6199ac2c5ce0af1bdcbd8e7ba160a0b88f1270d0fd05611', 0),
    'argv: oracle --solid-torus 1 0 8':
        ('1c22013f64e11aff8afc8b55f678ea9d3b388bdf97a6403bcf08dda4dab49805', 0),
    'argv: oracle --closed 3 2':
        ('02d541e2c7461fb40abdf7decb2a8f10030eaa79a3df1184c5e5a38bc1f3f43b', 0),
    'argv: oracle --connected-sum 2 3':
        ('057e0a427139d69a99f95a1620e177f403eff01317305dd60aeb1064b4dd86a3', 0),
    'argv: oracle --connected-sum 2 3 --with-closed':
        ('02d541e2c7461fb40abdf7decb2a8f10030eaa79a3df1184c5e5a38bc1f3f43b', 0),
    'argv: oracle':
        ('6c4b9bd003d96241eeffce3414d71b017e50601f6e6f59383953c2395385c7a2', 2),
    'argv:':
        ('4e7c9475035eafb9bf7e761f02facc26066ce9922e521aab455299e9864f284e', 2),
    'euler t312_pres':
        ('b599301375312b79368fddb8fc2f2b44b7106aba7502c36f8420e164d57b4ea7', 1),
    'torsion t212':
        ('785bad2a9cf3b35702e3bac2bcfeed5984277f5285974da350957118fa1dc276', 1),
    'check pretzel222':
        ('b599301375312b79368fddb8fc2f2b44b7106aba7502c36f8420e164d57b4ea7', 1),
    'polytope --support t212':
        ('10a37da41f079431aa39426bbd2d39b759578558498646b83e1692e7e7e7b820', 1),
    'polytope --support dim7':
        ('705b3a523bb3a4f8c15acc3a8e5ed025f33e7421a54e465c551adf5e47667148', 1),
    'polytope --support empty':
        ('2d9ce2af30a0f16f8553f9e7e46ab696509bdbcfdd73cbdfe08615260834eac8', 1),
    'polytope --support random0':
        ('d581bc6b7d25b5745abf24aa055bf73870bfaa2424978c80294085171d3df3eb', 0),
    'polytope --support random1 --canonical':
        ('ebd913b9f3edf1097a62030037fedf1184e84dc772f337c3e003e7da5bab3ef9', 0),
    'polytope --support random2':
        ('336d4c2c6db119ba6b9df3ca3a54f2a4640e7516833f2410439db8b75cae96b6', 0),
    'polytope --support random3 --canonical':
        ('8941bad789c4145f581534548b370c416eca85d32e645201d1bc727931388e4c', 0),
    'polytope --support random4':
        ('25430da09021d1bbbf7e5551a8bd8a1004dc5a9b808d6b6acbda0073fc98328d', 0),
    'polytope --support random5 --canonical':
        ('3131f3686bd8ae98ef2d5829c18860801158c14f72448f3702fa2aec53624c4e', 0),
    'polytope --support random6':
        ('0daa1389c47bd27685113322eeacce96cea2710740043c01296db5df66aa649d', 0),
    'polytope --support random7 --canonical':
        ('99d3ce76c18315c6af4a83581d63b44ca914946860faa2abac24d1a157b14d03', 0),
    'polytope --support random8':
        ('345bbaa227d2653ec3f14e9b1c2af519cd0ef78dbc7989ac3d609ac4cc4fa83b', 0),
    'polytope --support random9 --canonical':
        ('a1aa84b4632954d6ceb493803d9ea6a2a8b7155f6abb171b939c92ed456f52d0', 0),
    'polytope --support random10':
        ('9f9ea4b70ae55326016b65a1a70fd707f601c8f30b3a7b23d40e905c8701237e', 0),
    'polytope --support random11 --canonical':
        ('c5c49b40489c13213b8257888ad31c0f8783d6f610014dc6373a6e02b55c9fcd', 0),
    'polytope --support random12':
        ('543a33649e23bea0952764f1f3d71bb962edce99c637684b0ceb10da36ac9221', 0),
    'polytope --support random13 --canonical':
        ('598551558e112d850a8d2965d7555981a9a8d14498bd9c5e1ab470210a7d41d5', 0),
    'polytope --support random14':
        ('7ce9fea647015c933f1e77b2d8c4c564b49021751f0063ef99c00c5eee3b9dfb', 0),
    'polytope --support random15 --canonical':
        ('0a48848635d3e94bdddd36df59b600ec596a891c4d3e95bc64d0ed85b0031145', 0),
    'polytope --support random16':
        ('71c22e0e33e3391a2b39eff3b07e8529976203ac2386107a46455d53b1ef128c', 0),
    'polytope --support random17 --canonical':
        ('fc7bf257ebd809aa96834ab9a0287920f57aea34a7cc28b7ee287c572a75240f', 0),
    'polytope --support random18':
        ('1a27f50fe985dc48fdd32d6a5114dbe07426e8cbae86f0ec4bdce6d684af552c', 0),
    'polytope --support random19 --canonical':
        ('672d8c1d5529bde9cad45ceb5bcc01b1b4cf0edf0d88bd079c28ff762bc28562', 0),
    'euler lens2':
        ('de289e599b81c88d8a9b7f70a8f0864d1377c23895ce7d5ce9b23a07e659f9d4', 0),
    'spinc lens2':
        ('b3fb6cc83c2041e8479010baaf96a0f3a9d0486f5bdbd7a9a607d9df95f1a0a8', 0),
    'euler lens3':
        ('de8f50b63d4440e44e5cd9cdd1bbfc49826644afcabe164ffaa2aa6d7927e98e', 0),
    'spinc lens3':
        ('68a09fb7c705c2ccf0ea32aec7d794ada52fea6007a82ae79c97136591a7383b', 0),
    'euler lens4':
        ('c4d5b5568f270ada4c1a9c1ae0fa4e80dbe8278f799528efc84f734e15ee1efe', 0),
    'spinc lens4':
        ('9b87607f9a5f5c2d8340c0a7da818dd9535712c47e7b828aeaf0b1eb58410e3c', 0),
    'euler lens5':
        ('e07f4282f3682017cd7a3634abd621f080c6f0a5e2318dde6a692325554fbb98', 0),
    'spinc lens5':
        ('9ad01eabde47557b34791a43be75970571f348ee7ea03789189f2359738a05aa', 0),
    'euler lens6':
        ('6f0089ae5f8fe3aeed97302e8c2b7674db03f8e51e3959365ae5ea9c459a61c5', 0),
    'spinc lens6':
        ('36ceea238feb0e44db0918c1d5c83eca78063c5115427c5e1468c07b080fc15d', 0),
    'torsion pres0':
        ('07089297c3c1cdd0bf6bcd541fede841375a21ab5d6e71506ad55c4b67f34210', 0),
    'torsion pres1':
        ('78ef0223b79aebb26ad2277b6ec842725fac66fec198bd9b1e71045d039b95ce', 0),
    'torsion pres2':
        ('4fd43aa60e6a68cb09ecd5bbfba4f35b5bd72ef070cfefef719715a767802c5d', 0),
    'torsion pres3':
        ('033048f2ec953c07a4128a9c387364836c63693fd7abba482acd03562ab84418', 0),
    'torsion pres4':
        ('543a09bf8c8bd158c287ec1c1940d5121443465c7838399a58029354a0890470', 0),
    'torsion pres5':
        ('42d1ee044a322d118225c72f662f1b5c4d1e32cbca4297c4a746f04416a17858', 0),
    'torsion pres6':
        ('0db341e83c2b55cbee3540e38e9e6d909222232dc483fd3e89210ae10f4caa9a', 0),
    'torsion pres7':
        ('da45d205f4bfef1c6d6e29091bd94ac5ea8cc658bd9e2b361da4aa2d1ca291f3', 0),
    'torsion pres8':
        ('6bf6de21801f6752210be37710e5b9c38d30c9a2f59db205954241bfa2b44b57', 0),
    'torsion pres9':
        ('e7e2694d75bc7fb077a860ada8982a283e0e86ab3158f1d5ae6d7e3df3a2df00', 0),
    'torsion pres10':
        ('42d1ee044a322d118225c72f662f1b5c4d1e32cbca4297c4a746f04416a17858', 0),
    'torsion pres11':
        ('9ae66f68f482908a9ee5a233cb3c02404acf4b58ea3fd8f9977a240b0602dc79', 0),
    'maslov lagrangian0':
        ('0db9ae8d088f4c5541c6c0a581a361b7cf481019b26f023c035e64e2324afbf9', 0),
    'maslov symplectic0':
        ('332abeb11e4d78b95e7c368ec7a091f09b7ba99af27336b8ccff13a907b9dea3', 0),
    'maslov flow0 number':
        ('bfaffe280fd4f32cbaafe2aef49504ff106cab3c745b7dffcb440213996fb390', 0),
    'maslov flow0 object':
        ('bfaffe280fd4f32cbaafe2aef49504ff106cab3c745b7dffcb440213996fb390', 0),
    'maslov flow0 mixed':
        ('bfaffe280fd4f32cbaafe2aef49504ff106cab3c745b7dffcb440213996fb390', 0),
    'maslov lagrangian1':
        ('97d30d7c0246bcab542f75bdb3ea28eaf844e53e4097734e93729b3984b9597f', 0),
    'maslov symplectic1':
        ('4752aec68455d457c8fb7d73e1eed064efc881eb01e9d799731a4adb4dbd9a3d', 0),
    'maslov flow1 number':
        ('a2e248aa7d954ea58a0667d8cc59bcad63e4ee1037123c1a28b0a1404479cf8a', 0),
    'maslov flow1 object':
        ('a2e248aa7d954ea58a0667d8cc59bcad63e4ee1037123c1a28b0a1404479cf8a', 0),
    'maslov flow1 mixed':
        ('a2e248aa7d954ea58a0667d8cc59bcad63e4ee1037123c1a28b0a1404479cf8a', 0),
    'maslov lagrangian2':
        ('467c0953841e3ad86d4008049109a86653d8a56f8b9e775bc67a94ca0a1e50c7', 0),
    'maslov symplectic2':
        ('483b12033933d5bf8c265c4fffa51cc6887e4fdbf8f06cbf88bf022dc2ab995c', 0),
    'maslov flow2 number':
        ('2d895f49bc775573478d204a04856dd44ef550f744135a1e9a72c8da957d1e61', 0),
    'maslov flow2 object':
        ('2d895f49bc775573478d204a04856dd44ef550f744135a1e9a72c8da957d1e61', 0),
    'maslov flow2 mixed':
        ('2d895f49bc775573478d204a04856dd44ef550f744135a1e9a72c8da957d1e61', 0),
    'maslov diagonal mixed':
        ('467c0953841e3ad86d4008049109a86653d8a56f8b9e775bc67a94ca0a1e50c7', 0),
    'maslov ragged rows':
        ('8208d736328fe4570bfa874e9202e872027a1401e08c28903c7ce721d1f447ad', 1),
    'maslov ragged objects':
        ('8c86a9e8c7955e20cb56e9cbb1db2d6a9c6cc71a97fe1b9dc89f60e004f8a9d5', 1),
    'maslov unequal sizes':
        ('67bf0122b9838679c94da66c0aaf7049e17230464979ffa62db156870f5c238d', 1),
    'maslov nan number':
        ('a93ea5c99645d902ac699c5a15363bf03b59bab2c1a856bb4cb62b79b453fb24', 1),
    'maslov nan object':
        ('7babdd4f378ee8d681e1b9e982ca456cdb24146570904fb1b960bf1a37c6f1c5', 1),
    'maslov inf object':
        ('6ece6f5d355266a24052631fcf2a2f91dd61d158a60ca64ea211170288b5fb24', 1),
    'maslov true number':
        ('2a2b47dfdc0892bd9a670c3b5389d10a9def5fe8c84084d1ec1075ba100f0bcf', 1),
    'maslov true object':
        ('5afd90c7c8d97f33d9414e085b26b55f0de5b42de95f97eb616dde6561dcc316', 1),
    'maslov string number':
        ('05f3e3c2884d55d4330a0ac58fce63836c3fc7f837580463f0f4f09bae8c71ad', 1),
    'maslov string object':
        ('8b4b0fa56a61db451ce39264d938f8b2abace368c43aad23c71dbd306708ce2e', 1),
    'maslov huge number':
        ('f2620381c28f7b6b4b0811355df17cc50abfd743b95247074c6a410ae65b724f', 1),
    'maslov huge object':
        ('e44b5a724c4165f1380a8686855ea953c52d8428ac1a93103974c1ef0e5c87f6', 1),
    'maslov row not a list':
        ('ea209b161aacffd5c0928b1296e01defb3196cbd016f17390fea02a88f66b420', 1),
    'maslov sample not a list':
        ('5fb8ad18977118a8ec89e881495e882e0f082198121446302d6aef0634fe829d', 1),
    'maslov samples not a list':
        ('0cc229f256999fdbccf33d6cbb7a85268b168b91ecba1306b4a9de960534cfaa', 1),
    'maslov empty':
        ('6e0a467902a118422896165a064092eb7e23c16cb13fbb381e8942ce6b74b75b', 1),
    'maslov lagrangian0 --samples 48':
        ('0db9ae8d088f4c5541c6c0a581a361b7cf481019b26f023c035e64e2324afbf9', 0),
    'maslov lagrangian0 --samples 7':
        ('8f584a336b060704c41975076aa7320ecebc0f61af2369ec77542e6fa952a2ab', 2),
    'maslov lagrangian0 --kind symplectic_loop':
        ('ca797cee2ac95e735020f8d384bf29ca31403431aa79fdd3637cd072b0328a14', 0),
    'maslov lagrangian0 --kind lagrangian_loop --samples 48':
        ('0db9ae8d088f4c5541c6c0a581a361b7cf481019b26f023c035e64e2324afbf9', 0),
    'maslov flow1 object --kind lagrangian_loop':
        ('2d717ea24eeecc9bf5522cc1acf3ad12d1b8d2bc0a128f731128e033e3452450', 1),
    'maslov flow1 object --samples 40':
        ('a2e248aa7d954ea58a0667d8cc59bcad63e4ee1037123c1a28b0a1404479cf8a', 0),
    'maslov flow1 object --samples 41':
        ('11152751c0cb9daade084abc34163c12a56cfb90f6425c13b1f3ec1f33fa0f83', 2),
    'maslov nokind --kind lagrangian_loop':
        ('0db9ae8d088f4c5541c6c0a581a361b7cf481019b26f023c035e64e2324afbf9', 0),
    'maslov nokind --kind symplectic_loop':
        ('ca797cee2ac95e735020f8d384bf29ca31403431aa79fdd3637cd072b0328a14', 0),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return cases(tmp_path_factory.mktemp("digests"))


def test_every_case_is_pinned(runs):
    assert sorted(case for case, _ in runs) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_stdout_digest(runs, case):
    argv = dict(runs)[case]
    assert digest(argv) == DIGESTS[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("DIGESTS = {\n")
        for case, argv in cases(tmp):
            sha, code = digest(argv)
            sys.stdout.write(f"    {case!r}:\n        ({sha!r}, {code}),\n")
        sys.stdout.write("}\n")
