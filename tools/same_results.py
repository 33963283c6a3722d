"""Record what one parseq source tree decides, and compare two records.

A performance change should leave every result of the engine as it was.
This script records, for one source tree, every check of the benchmark's
inputs: the 7 fixture pairs with leaps and single-bit (single-bit
``vlan/vlan`` and ``sloppy/strict`` included) and the 300 ``random-small``
pairs. Per check it writes the verdict, the reason, every counter of
``Result.stats`` (all its fields but ``wall_time``), a SHA-256 of the
witness text, a SHA-256 of the witness JSON (``Witness.to_json``) and a
SHA-256 of the reach set's dump. The witness text renders each entry with
``render_guarded`` and the JSON renders each body with ``render``; both
read a buffer's width from the entry's guard, so each hash checks one of
the two. It also records, for every fixture file and every
``random-small`` source, a SHA-256 of ``pretty_print(parse_source(text))``,
so that a change to the frontend can show that it builds the same
automata. A record made by an older script, or of a tree whose
``Result.stats`` has other counters, lacks some fields; ``compare`` checks
the fields both records have and names the others once. With
``--dump-smt`` it also decides the fixture pairs again under
``--dump-smt``, with leaps and single-bit, and records a SHA-256 of each
query file and, in order, the answer TREE's own ``parseq-smt``
(``solver_cli.run_script``) gives each one. A change that rewrites the
query files can then show that every answer is unchanged.

Texts are hashed in a normal form that ignores how ``++`` and SMT-LIB
``concat`` chains nest and whether adjacent literals are joined, so two
trees that differ only in the shape of their bit expressions record the
same hashes. The JSON is hashed with each string in that normal form.

  python3 tools/same_results.py record TREE OUT.json [--dump-smt]
  python3 tools/same_results.py compare A.json B.json

``record`` imports ``parseq`` from TREE/src and the inputs from
TREE/parseqbench/inputs.py, and runs one check at a time in this process.
``compare`` prints every difference, then one line that counts them and
splits the differing checks by the first record's verdict, and counts the
differing parses and the differing dump sets by file hashes and by
answers, then one line that
counts the differing checks per field, and exits 1 if there is a
difference.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter

RANDOM_SEED, RANDOM_COUNT = 2022, 300  # the random-small population

_CONCAT_GROUP = re.compile(r"\(([^()=&|!]* \+\+ [^()=&|!]*)\)")
_LITERALS = re.compile(r'"([01]*)" \+\+ "([01]*)"')


def flat_text(text: str) -> str:
    """Rendered formulas with every ``++`` chain unparenthesized and
    adjacent literals joined."""
    while True:
        out = _LITERALS.sub(r'"\1\2"', _CONCAT_GROUP.sub(r"\1", text))
        if out == text:
            return out
        text = out


def _sexps(text: str) -> list:
    out: list = []
    stack: list[list] = []
    for tok in re.findall(r"\(|\)|[^\s()]+", text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            (stack[-1] if stack else out).append(done)
        else:
            (stack[-1] if stack else out).append(tok)
    return out


def _flat_sexp(e):
    if not isinstance(e, list):
        return e
    e = [_flat_sexp(x) for x in e]
    if e and e[0] == "concat":
        parts: list = []
        for x in e[1:]:
            parts += x[1:] if isinstance(x, list) and x and x[0] == "concat" else [x]
        joined: list = []
        for x in parts:
            if joined and isinstance(x, str) and x.startswith("#b") and str(joined[-1]).startswith("#b"):
                joined[-1] += x[2:]
            else:
                joined.append(x)
        return joined[0] if len(joined) == 1 else ["concat"] + joined
    return e


def _show(e) -> str:
    return e if not isinstance(e, list) else "(" + " ".join(_show(x) for x in e) + ")"


def flat_smt(text: str) -> str:
    """An SMT-LIB script without comments, with every ``concat`` chain
    made one n-ary ``concat`` and adjacent literals joined."""
    body = "\n".join(ln for ln in text.splitlines() if not ln.startswith(";"))
    return "\n".join(_show(_flat_sexp(e)) for e in _sexps(body))


def flat_json(text: str) -> str:
    """A JSON document with every string in the ``flat_text`` normal form."""

    def flat(x):
        if isinstance(x, str):
            return flat_text(x)
        if isinstance(x, list):
            return [flat(y) for y in x]
        if isinstance(x, dict):
            return {k: flat(y) for k, y in x.items()}
        return x

    return json.dumps(flat(json.loads(text)), sort_keys=True)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _record(res) -> dict:
    out = {"verdict": res.verdict, "reason": flat_text(res.reason)}
    out.update({k: getattr(res.stats, k) for k in res.stats.__slots__ if k != "wall_time"})
    out["witness"] = sha(flat_text(res.witness.to_text())) if res.witness else None
    out["witness_json"] = sha(flat_json(res.witness.to_json())) if res.witness else None
    out["reach"] = sha(res.reach.dump()) if res.reach else None
    return out


def record(tree: str, dump_smt: bool) -> dict:
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "parseqbench")]
    import parseq
    from inputs import FIXTURE_PAIRS, pair_name, random_pairs
    from parseq.engine import check_equivalence
    from parseq.frontend import parse_source, pretty_print
    from parseq.smt import SolverConfig
    from parseq.solver_cli import run_script

    def load(name: str):
        return parseq.load(parseq.fixture_path(name))

    parses: dict[str, str] = {}
    population = random_pairs(RANDOM_SEED, RANDOM_COUNT)
    fixtures = os.path.dirname(parseq.fixture_path("any"))
    for name in sorted(f for f in os.listdir(fixtures) if f.endswith(".p4a")):
        with open(os.path.join(fixtures, name)) as fh:
            parses[f"fixture {name}"] = sha(pretty_print(parse_source(fh.read())))
    for i, (a, _, b, _) in enumerate(population):
        parses[f"random {i} left"] = sha(pretty_print(parse_source(a)))
        parses[f"random {i} right"] = sha(pretty_print(parse_source(b)))
    checks: dict[str, dict] = {}
    for leaps in (True, False):
        for lf, lq, rf, rq, _ in FIXTURE_PAIRS:
            res = check_equivalence(
                load(lf), lq, load(rf), rq, config=SolverConfig(), leaps=leaps
            )
            name = f"{'leaps' if leaps else 'single-bit'} {pair_name((lf, lq, rf, rq))}"
            checks[name] = _record(res)
            print(name, checks[name]["verdict"], file=sys.stderr)
    for i, (a, qa, b, qb) in enumerate(population):
        res = check_equivalence(parse_source(a), qa, parse_source(b), qb, config=SolverConfig())
        checks[f"random {i}"] = _record(res)
    dumps: dict[str, list[str]] = {}
    answers: dict[str, list[str]] = {}
    for leaps in (True, False) if dump_smt else ():
        for lf, lq, rf, rq, _ in FIXTURE_PAIRS:
            name = f"{'leaps' if leaps else 'single-bit'} {pair_name((lf, lq, rf, rq))}"
            with tempfile.TemporaryDirectory() as tmp:
                config = SolverConfig(dump_dir=tmp)
                check_equivalence(load(lf), lq, load(rf), rq, config=config, leaps=leaps)
                hashes, said = [], []
                for f in sorted(os.listdir(tmp)):
                    with open(os.path.join(tmp, f)) as fh:
                        text = fh.read()
                    hashes.append(sha(flat_smt(text)))
                    out = io.StringIO()
                    run_script(text, out)
                    said.append(out.getvalue().strip())
                dumps[name], answers[name] = hashes, said
            print(name, len(hashes), "dump files", file=sys.stderr)
    return {
        "tree": os.path.abspath(tree),
        "checks": checks,
        "parses": parses,
        "dump_smt": dumps,
        "dump_answers": answers,
    }


def compare(a: dict, b: dict) -> tuple[list[str], str]:
    """Every difference, and a summary: a line that splits the differing
    checks by their verdict in ``a`` and counts the differing parses and
    the dump sets whose file hashes and whose answers differ, a line that counts the differing
    checks per field, and a line naming the fields and sections only one
    record has."""
    diffs = []
    split = {"changed": 0, "Equivalent": 0, "NotEquivalent": 0, "Inconclusive": 0,
             "parses": 0, "dump_smt": 0, "dump_answers": 0}
    fields: Counter[str] = Counter()
    lacking: set[str] = set()  # fields of one record's checks, or sections of one record
    for section in ("checks", "parses", "dump_smt", "dump_answers"):
        if (section in a) != (section in b):
            lacking.add(section)
            continue
        for name in sorted(set(a.get(section, ())) | set(b.get(section, ()))):
            x, y = a[section].get(name), b[section].get(name)
            if x == y:
                continue
            if isinstance(x, dict) and isinstance(y, dict):
                keys = [k for k in x if k in y and x[k] != y[k]]
                lacking.update(set(x) ^ set(y))
                if not keys:
                    continue
                fields.update(keys)
                split[x["verdict"]] += 1
                split["changed"] += x["verdict"] != y["verdict"]
                diffs.append(f"{name}: " + ", ".join(f"{k} {x[k]!r} -> {y[k]!r}" for k in keys))
            elif isinstance(x, list) and isinstance(y, list):
                split[section] += 1
                changed = sum(p != q for p, q in zip(x, y)) + abs(len(x) - len(y))
                what = "files differ" if section == "dump_smt" else "answers differ"
                diffs.append(f"{section} {name}: {changed} of {max(len(x), len(y))} {what}")
            else:
                split[section] += section == "parses"
                diffs.append(f"{section} {name}: {x!r} -> {y!r}")
    summary = (
        f"{len(diffs)} difference(s): {split['changed']} verdict changes; "
        f"{split['Equivalent']} on Equivalent checks, "
        f"{split['NotEquivalent']} on NotEquivalent checks, "
        f"{split['Inconclusive']} on Inconclusive checks, "
        f"{split['parses']} differing parses, "
        f"{split['dump_smt']} dump sets with differing files, "
        f"{split['dump_answers']} with differing answers\n"
        "differing checks per field: "
        + (", ".join(f"{k} {n}" for k, n in sorted(fields.items())) or "none")
        + (f"\nfields or sections in one record only, not compared: {', '.join(sorted(lacking))}"
           if lacking else "")
    )
    return diffs, summary


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="record the results of one source tree")
    rec.add_argument("tree")
    rec.add_argument("out")
    rec.add_argument("--dump-smt", action="store_true", help="also hash --dump-smt files")
    cmp_ = sub.add_parser("compare", help="compare two records")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "record":
        with open(args.out, "w") as fh:
            json.dump(record(args.tree, args.dump_smt), fh, indent=1, sort_keys=True)
        return 0
    with open(args.a) as fa, open(args.b) as fb:
        diffs, summary = compare(json.load(fa), json.load(fb))
    for d in diffs:
        print(d)
    print(summary)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
