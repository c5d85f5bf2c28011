"""A seeded corpus of CLI invocations, and the digests of their outputs.

    python tests/cli_corpus.py            # check the committed digests
    python tests/cli_corpus.py --write    # regenerate tests/cli_corpus.json

Every invocation runs in-process through `linpole.cli.main`.  Its outcome is
the exit code, standard output and the first line of standard error.  The
committed file holds, per verb, the sha256 of the verb's outcomes in order
and a short digest of each one, so a changed output is named by the first
invocation that moved.  The inputs are text drawn from one `random.Random`
by the text generators of `helpers.py`, so they depend neither on the hash
seed nor on how the package renders its values.  No invocation reaches an
argparse error, whose text differs between Python versions.  Inner-product
files are written to a temporary directory, and an argv names them by the
placeholders `{gram2}` and `{gram3}`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from helpers import random_form_text, random_germ_text, random_poly_text  # noqa: E402
from linpole.cli import main as cli_main  # noqa: E402

CORPUS_FILE = HERE / "cli_corpus.json"
SEED = 29
GRAMS = {"{gram2}": [["2", "1"], ["1", "2"]],
         "{gram3}": [["3", "1", "0"], ["1", "2", "1/2"], ["0", "1/2", "1"]]}
# the four option sets every germ verb runs under
VARIANTS = ((), ("--format", "json"), ("--gram", "{gram2}"),
            ("--format", "json", "--gram", "{gram3}"))


def _word(rng: random.Random, letters, n_max: int = 3) -> str:
    w = "".join(rng.choice(letters) for _ in range(rng.randint(1, n_max)))
    return w or "1"


def _chen_spec(rng: random.Random, depth_max: int = 3, local: bool = True) -> str:
    depth = rng.randint(1, depth_max)
    letters = rng.sample(range(1, 5), depth) if local else [rng.randint(1, 3)
                                                            for _ in range(depth)]
    exps = [rng.randint(1, 3) for _ in range(depth)]
    return f"f[{','.join(map(str, exps))};{','.join(map(str, letters))}]"


def _speer_spec(rng: random.Random) -> str:
    depth = rng.randint(1, 2)
    sets = ["{" + ",".join(map(str, sorted(rng.sample(range(1, 5), rng.randint(1, 2))))) + "}"
            for _ in range(depth)]
    exps = [rng.randint(1, 2) for _ in range(depth)]
    return f"f[{','.join(map(str, exps))};{','.join(sets)}]"


def _holo(rng: random.Random) -> str:
    return random_poly_text(rng, max_var=3, max_deg=2, n_terms=2)


def _combo(rng: random.Random) -> dict:
    return {"terms": [{"holo": rng.choice(("1", "2", "-1/3", _holo(rng))),
                       "specs": [_chen_spec(rng, 2) for _ in range(rng.randint(0, 2))]}
                      for _ in range(rng.randint(1, 2))]}


def _forest(rng: random.Random) -> dict:
    def node(s):
        kids, rest = [], sorted(s)
        rng.shuffle(rest)
        while len(rest) > 1 and rng.random() < 0.5:
            take = rng.randint(1, len(rest) - 1)
            kids.append(node(rest[:take]))
            rest = rest[take:]
        return {"set": sorted(s), "exp": rng.randint(1, 2), "children": kids}
    return {"nodes": [node(range(1, rng.randint(2, 4)))]}


_GENERATORS = ("f[2;1]", "f[3;1]", "f[1;1]", "f[2;2]", "f[2,1;1,2]", "f[2;{1}]",
               "f[3,1;1,2]", "f[1,2;1,2]")


def _generators(rng: random.Random) -> str:
    return ";".join(rng.sample(_GENERATORS, rng.randint(1, 3)))


def _transform(rng: random.Random, gens) -> str:
    return json.dumps({"shifts": [{"spec": g, "value": rng.choice(("1", "-2", "3/7", "0"))}
                                  for g in gens]})


def invocations(seed: int = SEED) -> list[tuple[str, ...]]:
    """Every argv of the corpus, in order."""
    rng = random.Random(seed)
    out: list[tuple[str, ...]] = []

    def each_variant(*argv):
        out.extend(variant + argv for variant in VARIANTS)

    for _ in range(24):
        each_variant("decompose", random_germ_text(rng, rng.choice((2, 3, 3, 4))))
    for _ in range(10):
        each_variant("pi-plus", random_germ_text(rng, 3))
    for _ in range(10):
        each_variant("residue", "--kind", rng.choice("pd"), random_germ_text(rng, 3))
    for _ in range(10):
        each_variant("dep", random_germ_text(rng, 3))
    for _ in range(10):
        each_variant("orth", random_germ_text(rng, 3), random_germ_text(rng, 3))
    for _ in range(8):
        a = random_form_text(rng, 3)
        each_variant("orth", f"1/({a})", f"z{rng.randint(1, 3)}")
    for _ in range(12):
        each_variant("mul", "--locality", rng.choice(("strict", "raw")),
                     random_germ_text(rng, 3), random_germ_text(rng, 3))
    for _ in range(12):
        each_variant("eval", "--evaluator", "ms", random_germ_text(rng, 3))
    for _ in range(10):
        each_variant("eval", "--evaluator", "iter", random_germ_text(rng, 3))
    for _ in range(6):
        each_variant("eval", "--evaluator", rng.choice(("ms", "iter")), _chen_spec(rng, 2))
        each_variant("eval", "--evaluator", rng.choice(("ms", "iter")), json.dumps(_combo(rng)))
    for _ in range(8):
        each_variant("eval", "--evaluator", "zeta", _chen_spec(rng, 2))
        each_variant("eval", "--evaluator", "zeta", json.dumps(_combo(rng)))
    each_variant("eval", "--evaluator", "zeta", _holo(rng))
    each_variant("eval", "--evaluator", "zeta", '{"terms":[{"holo":"z2","specs":["f[2;1]"]}]}')
    each_variant("eval", "--evaluator", "zeta", '{"terms":[{"holo":"z1","specs":["f[2;1]"]}]}')
    out.append(("--precision", "20", "eval", "--evaluator", "zeta", "f[3,1;1,2]"))
    out.append(("--perm-cap", "2", "eval", "--evaluator", "iter", "1/(z1*(z1+z2)*z3)"))

    words = ("x0", "x1", "x2", "x3")
    for _ in range(16):
        for fmt in ((), ("--format", "json")):
            out.append(fmt + ("shuffle", _word(rng, words), _word(rng, words)))
    for _ in range(4):
        out.append(("shuffle", _word(rng, ("x0", "x{1}", "x{2,3}")), _word(rng, ("x{1,2}", "x0"))))
    for action in ("factor", "rewrite", "test"):
        for _ in range(10):
            for fmt in ((), ("--format", "json")):
                out.append(fmt + ("lyndon", action, _word(rng, words, 5)))
        for _ in range(3):
            out.append(("lyndon", action, _word(rng, ("x0", "x{1}", "x{2,3}", "x{2}"), 4)))
    for letters in ("x1,x2", "x0,x1,x2", "x2,x1,x2", "x{1,2},x{3}", "x{1},x{2},x0", "x1"):
        for length in ("1", "2", "3"):
            for fmt in ((), ("--format", "json")):
                out.append(fmt + ("lyndon", "generators", letters, "--max-length", length))
    for _ in range(10):
        for lmap in ("chen", "weak-chen", "speer"):
            alphabet = words if lmap != "speer" else ("x0", "x{1}", "x{2,3}", "x{2}")
            for fmt in ((), ("--format", "json")):
                out.append(fmt + ("phi", "--lmap", lmap, _word(rng, alphabet, 4)))
    for _ in range(12):
        for fmt in ((), ("--format", "json")):
            out.append(fmt + ("unphi", _chen_spec(rng, 3, local=rng.random() < 0.7)))
            out.append(fmt + ("unphi", _speer_spec(rng)))
    for _ in range(14):
        for fmt in ((), ("--format", "json")):
            if rng.random() < 0.7:
                out.append(fmt + ("expand", _chen_spec(rng, 2), _chen_spec(rng, 2)))
            else:
                out.append(fmt + ("expand", _speer_spec(rng), _speer_spec(rng)))
    for _ in range(10):
        for fmt in ((), ("--format", "json")):
            out.append(fmt + ("flatten", json.dumps(_forest(rng))))

    for _ in range(8):
        for ev in ("ms", "iter", "zeta"):
            each_variant("galois", "derive", "--evaluator", ev, "--generators", _generators(rng))
    for _ in range(10):
        gens = rng.sample(_GENERATORS[:5], rng.randint(1, 3))
        each_variant("galois", "apply", "--transform", _transform(rng, gens),
                     "--combo", json.dumps(_combo(rng)))
        each_variant("galois", "invert", "--transform", _transform(rng, gens))
        other = gens if rng.random() < 0.8 else gens[:1] + ["f[3;2]"]
        each_variant("galois", "compose", "--transform", _transform(rng, gens),
                     "--transform2", _transform(rng, other))
    for _ in range(6):
        for ev in ("ms", "iter", "zeta"):
            combos = json.dumps([_combo(rng) for _ in range(rng.randint(1, 3))])
            each_variant("galois", "check", "--evaluator", ev, "--generators",
                         _generators(rng), "--combos", combos, "--tol",
                         rng.choice(("", "0", "1/1000000")))
    each_variant("galois", "apply", "--transform", '{"shifts":[]}',
                 "--combo", '{"terms":[{"holo":"z2","specs":["f[2;1]"]}]}')

    # error exits: parse errors (exit 2) and domain errors (exit 1)
    for expr in ("z1+*", "z1)", "z0", "", "q1", "1/(1+z1)", "1/(z1*z1+z2)", "1/0",
                 "(z1", "z1^-1", "1/(z1-z1)", "z1^100000/(z1+z2)"):
        for verb in ("decompose", "dep"):
            out.append((verb, expr))
    for spec in ("f[2;0]", "f[2;-1]", "f[1;{0}]", "f[-2;1]", "f[;]", "f[ 2 ; 1 ]",
                 "f[2;{}]", "f[2;1", "g[2;1]", "f[2;1,2]", "f[a;1]", "f[2;x]",
                 "f[2;{1,a}]", "f[2,;1]", "f[2;1,]", "f[2;,1]", "f[2;{1,}]",
                 "f[2,1;1]", "f[2; 1 2]", "f[2;1,{2}]", "f[2,2;1,1]"):
        out.append(("unphi", spec))
        out.append(("eval", "--evaluator", "zeta", spec))
    for argv in (("eval", "--evaluator", "zeta", "1/z1"),
                 ("eval", "--evaluator", "ms", '{"terms":[{"holo":"1/z1"}]}'),
                 ("eval", "--evaluator", "ms", '{"terms":5}'),
                 ("eval", "--evaluator", "ms", '{"trms":[]}'),
                 ("eval", "--evaluator", "zeta", "f[2;{1}]"),
                 ("--perm-cap", "1", "eval", "--evaluator", "iter", "1/(z1+z2)"),
                 ("--precision", "1001", "eval", "--evaluator", "zeta", "f[2;1]"),
                 ("mul", "1/z1", "1/z1"),
                 ("phi", "x1x0"),
                 ("phi", "--lmap", "speer", "x1"),
                 ("shuffle", "x1", "y2"),
                 ("lyndon", "factor", "x1x{2}"),
                 ("lyndon", "rewrite", "1"),
                 ("expand", "f[2;1]", "f[2;1]"),
                 ("expand", "f[2;1]", "f[2;{1}]"),
                 ("flatten", '{"nodes":[{"set":[1],"children":[{"set":[2]}]}]}'),
                 ("flatten", '{"nodes":[{"set":[]}]}'),
                 ("flatten", '{"nodes":[{"set":[1],"exp":0}]}'),
                 ("flatten", '{"nodes":[{"set":[1]},{"set":[1,2]}]}'),
                 ("galois", "derive", "--generators", "x"),
                 ("galois", "derive", "--generators", "f[1,2;2,1]"),
                 ("galois", "derive", "--generators", "f[;]"),
                 ("galois", "derive", "--generators", "f[2,2;1,1]"),
                 ("galois", "apply", "--transform", '{"shifts":[{"spec":"f[2;1]"}]}',
                  "--combo", "1"),
                 ("galois", "apply", "--transform", "[", "--combo", "1"),
                 ("galois", "check", "--generators", "f[2;1]", "--combos", '["f[2;1]"]',
                  "--tol", "x"),
                 ("galois", "check", "--evaluator", "zeta", "--generators", "f[2;1]",
                  "--combos", '["f[2,2;1,1]"]'),
                 ("galois", "derive", "--generators", "f[2;1] xyz"),
                 ("galois", "derive", "--generators", "f[2;1],f[3;1]"),
                 ("galois", "derive", "--generators", "f[2;1];"),
                 ("galois", "invert", "--transform",
                  '{"shifts":[{"spec":"f[2;1]","value":0.1}]}'),
                 ("expand", "f[2;0]", "f[1;1]"),
                 ("expand", "f[1;{1}]", "f[2;{0}]")):
        out.append(argv)

    # spec locality reads letters only: no inner product reaches it, and
    # letter-local specs whose forms a Gram block couples still expand
    each_variant("expand", "f[1;1]", "f[2;2]")
    each_variant("expand", "f[2;{1}]", "f[1;{2,3}]")
    for _ in range(6):
        each_variant("expand", _chen_spec(rng, 2, local=rng.random() < 0.7),
                     _chen_spec(rng, 2))
    return out


def outcome(argv: tuple[str, ...], paths: dict[str, str]) -> tuple[int, str, str]:
    """(exit code, standard output, first line of standard error) of one
    in-process run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([paths.get(a, a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue().partition("\n")[0]


def _verb(argv: tuple[str, ...]) -> str:
    i = 0
    while argv[i].startswith("--"):
        i += 2
    return argv[i]


def digests(seed: int = SEED) -> tuple[dict, list[tuple[str, ...]]]:
    """{verb: {"sha256": ..., "items": [short digest per argv]}} in corpus
    order, and the argvs."""
    cases = invocations(seed)
    verbs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, gram in GRAMS.items():
            paths[name] = os.path.join(tmp, name.strip("{}") + ".json")
            with open(paths[name], "w") as fh:
                json.dump({"gram": gram}, fh)
        for argv in cases:
            code, out, err = outcome(argv, paths)
            item = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
            verbs.setdefault(_verb(argv), {"items": []})["items"].append(item[:16])
    for entry in verbs.values():
        entry["sha256"] = hashlib.sha256("".join(entry["items"]).encode()).hexdigest()
    return {"seed": seed, "verbs": dict(sorted(verbs.items()))}, cases


def mismatches() -> list[str]:
    """One line per verb whose digest differs from the committed file,
    naming the first argv whose output moved."""
    committed = json.loads(CORPUS_FILE.read_text())
    now, cases = digests(committed["seed"])
    by_verb: dict[str, list] = {}
    for argv in cases:
        by_verb.setdefault(_verb(argv), []).append(argv)
    lines = []
    for verb in sorted(set(committed["verbs"]) | set(now["verbs"])):
        old, new = committed["verbs"].get(verb), now["verbs"].get(verb)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{verb}: {'new' if old is None else 'no longer'} in the corpus")
            continue
        pairs = zip(old["items"], new["items"], by_verb[verb])
        first = next((argv for a, b, argv in pairs if a != b), None)
        lines.append(f"{verb}: first differing argv {list(first)!r}" if first
                     else f"{verb}: {len(old['items'])} invocations committed, "
                          f"{len(new['items'])} now")
    return lines


def write() -> None:
    data, _ = digests()
    CORPUS_FILE.write_text(json.dumps(data, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    else:
        problems = mismatches()
        print("\n".join(problems) or "all digests match")
        sys.exit(1 if problems else 0)
