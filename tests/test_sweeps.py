"""Byte-identity sweeps of ``cograph embed`` and ``cograph verify``.

Each digest is a sha256 over ``repr((argv, exit code, stdout, stderr))`` of
every ``cli.main`` call, in order.  A change that means to alter this output
updates the digest and says why; any other change must leave it as it is.
"""

import hashlib
from collections import Counter

from cographs.cli import _THEOREMS, main
from cographs.cotree import format_expression
from cographs.generators import enumerate_cotrees, random_cotree

TREES = ("path:1", "path:2", "path:3", "star:4")


def _sweep(capsys, argvs):
    digest, codes = hashlib.sha256(), Counter()
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        digest.update(repr((argv, code, out, err)).encode())
        codes[code] += 1
    return digest.hexdigest(), codes


def _embed_argvs():
    for n in range(1, 8):
        for ct in enumerate_cotrees(n):
            expr = format_expression(ct)
            for theorem, (_, takes_k, _) in _THEOREMS.items():
                for tree in TREES:
                    for k in ((1, 2, 3) if takes_k else (None,)):
                        argv = ["embed", "--expr", expr, "--theorem", theorem,
                                "--tree", tree]
                        yield argv + ["-k", str(k)] if k else argv


def _verify_cotrees():
    for n in range(1, 9):
        yield from enumerate_cotrees(n)
    for n in (12, 16, 17, 20):
        for seed in range(15):
            for bias in (0.5, 1.0):
                yield random_cotree(n, seed, bias)


def test_embed_sweep(capsys):
    # every cograph of order <= 7, each theorem, tree and k
    assert _sweep(capsys, _embed_argvs()) == (
        "fb4e142f2661ef4475958514f5581dea3d9ba0d8e198a753ccfa30a035070842",
        {0: 2824, 3: 15544})


def test_verify_sweep(capsys):
    # every cograph of order <= 8, then 120 random cotrees
    argvs = (["verify", "--expr", format_expression(ct)]
             for ct in _verify_cotrees())
    assert _sweep(capsys, argvs) == (
        "c461c9aa90ec04738224cfd6fc954377b0892ce8a4db32c4ff8691d274bc9f30",
        {0: 929})
