"""A seeded sample of AST mutants over named functions, each run against the
tier-1 suite.

    python tools/mutants.py --seed 30 --count 40 \\
        src/squanta/nucleus.py:convert src/squanta/modact.py:ActionMap.column

A target is a file under the repository root and the qualified name of a
function in it (`Class.method` for a method). Every site of every target
where an operator applies is listed, in file order and then in `ast.walk`
order within each function, and `random.Random(seed)` draws `count` of
them, so a seed always draws the same mutants. The operators:

- flip a comparison (== and !=, < and >=, <= and >, in and not in, is and
  is not);
- swap `and` and `or`; drop a `not`;
- swap `&` and `|`, `+` and `-`, `<<` and `>>`; turn `*` into `+`;
- swap a call's first two positional arguments.

A mutant replaces its function's lines with the unparsed mutated function.
Each runs `python -m pytest -q -x` in a fresh temporary copy of the
working tree, one at a time, with a timeout and an address-space limit set
on that child process only. It is `killed` when the suite fails, `timeout`
when only a timeout ended it (the sampler's, or the suite's own hang guard,
which prints "Timeout (") and `survived` when the suite passes. One JSON
line per mutant goes to stdout, then a summary line. `--list` prints the
drawn mutants without running them. The standard library is all it needs.
"""

import argparse
import ast
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
         ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
         ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is}
SWAPS = {ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.Add: ast.Sub,
         ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
         ast.Mult: ast.Add, ast.And: ast.Or, ast.Or: ast.And}
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".bench_out")


def _sites(fn):
    """(position in ast.walk(fn), operator name, index) for each site."""
    for pos, node in enumerate(ast.walk(fn)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield pos, f"flip {type(op).__name__}", i
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                yield pos, f"swap {type(node.op).__name__}", 0
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield pos, "drop not", 0
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and not any(isinstance(a, ast.Starred) for a in node.args[:2])):
            yield pos, "swap args", 0


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        return node.operand if node is self.target else self.generic_visit(node)


def _mutate(segment, pos, index):
    """The function in the source `segment`, parsed afresh, with the site at
    `pos` mutated."""
    fn = ast.parse(segment).body[0]
    node = list(ast.walk(fn))[pos]
    if isinstance(node, ast.Compare):
        node.ops[index] = FLIPS[type(node.ops[index])]()
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
        node.op = SWAPS[type(node.op)]()
    elif isinstance(node, ast.UnaryOp):
        fn = _DropNot(node).visit(fn)
    else:
        node.args[:2] = node.args[1::-1]
    return fn


def _function(tree, qualname):
    body = tree.body
    for name in qualname.split("."):
        node = next(n for n in body if getattr(n, "name", None) == name)
        body = node.body
    return node


def sample(targets, seed, count):
    """The drawn mutants, each a dict: k, file, function, operator, site
    (the mutated node before the change) and source (the mutated file)."""
    sites = []
    for target in targets:
        file, qualname = target.split(":")
        text = (ROOT / file).read_text()
        fn = _function(ast.parse(text), qualname)
        sites += [(file, qualname, text, fn, *s) for s in _sites(fn)]
    drawn = random.Random(seed).sample(range(len(sites)), min(count, len(sites)))
    out = []
    for k, i in enumerate(drawn):
        file, qualname, text, fn, pos, operator, index = sites[i]
        first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
        lines = text.splitlines(keepends=True)
        segment = textwrap.dedent("".join(lines[first - 1:fn.end_lineno]))
        indent = " " * fn.col_offset
        body = "".join(indent + line + "\n" for line in
                       ast.unparse(_mutate(segment, pos, index)).splitlines())
        out.append({"k": k, "file": file, "function": qualname,
                    "operator": operator,
                    "site": ast.unparse(list(ast.walk(fn))[pos]),
                    "source": "".join(lines[:first - 1]) + body
                    + "".join(lines[fn.end_lineno:])})
    return out, len(sites)


def _limit(memory_mb):
    def apply():  # runs in the child only
        limit = memory_mb * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def run(mutant, timeout, memory_mb):
    """Run tier-1 with -x against the mutant in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        (tree / mutant["file"]).write_text(mutant["source"])
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True, preexec_fn=_limit(memory_mb))
        try:
            out, _ = child.communicate(timeout=timeout)
            timed_out = "Timeout (" in out
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            out, _ = child.communicate()
            timed_out = True
    failed = [ln for ln in out.splitlines() if ln.startswith(("FAILED", "ERROR"))]
    result = ("survived" if child.returncode == 0 and not timed_out
              else "timeout" if timed_out else "killed")
    return {"result": result, "seconds": round(time.monotonic() - start, 1),
            "first_failure": failed[0][:80] if failed else None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="FILE:QUALNAME")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--timeout", type=float, required=True,
                        help="seconds for each mutant's suite")
    parser.add_argument("--memory-mb", type=int, required=True,
                        help="address-space limit of each suite's process")
    parser.add_argument("--list", action="store_true",
                        help="print the drawn mutants without running them")
    args = parser.parse_args()
    mutants, n_sites = sample(args.targets, args.seed, args.count)
    counts = {"killed": 0, "survived": 0, "timeout": 0}
    for m in mutants:
        line = {key: m[key] for key in ("k", "file", "function", "operator", "site")}
        if not args.list:
            line.update(run(m, args.timeout, args.memory_mb))
            counts[line["result"]] += 1
        print(json.dumps(line), flush=True)
    print(json.dumps({"seed": args.seed, "sites": n_sites,
                      "sampled": len(mutants), **counts}))


if __name__ == "__main__":
    main()
