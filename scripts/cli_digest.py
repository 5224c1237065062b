"""Output and exit codes of a fixed matrix of `floodit` commands under two
or more source trees, compared command by command.

    python scripts/cli_digest.py LABEL=SRC_DIR LABEL=SRC_DIR

Each SRC_DIR holds a `floodit` package (the `src/` of a checkout).  Per
tree, every command of COMMANDS runs as `python -m floodit ARGS` in a fresh
process, with the tree first on PYTHONPATH, from one fresh temporary
directory that starts with the input files of FILES; the files the commands
leave there are compared after the last command.  Times are masked: the
`... ms` of solve's text line, the "millis" of its JSON and bench's millis
column.  The matrix takes every exit path of the CLI that needs no patched
code at least once.  Prints every command whose exit code, stdout or stderr
differs between the trees, or that all are identical with a count of the
commands per exit code; exits 1 if any differs.
"""

import os
import re
import subprocess
import sys
import tempfile

from benchpair import child_env

FILES = {
    "b.txt": "4\na b c a\nc a b b\n",
    "bad.txt": "2\na b\nb\n",
    "g.txt": "0 1\n1 2\n",
    "loop.txt": "0 0\n",
}

COMMANDS = [
    "solve b.txt --method dp",
    "solve b.txt --method bfs",
    "solve b.txt",
    "solve b.txt --method dp --json --emit-sequence",
    "solve b.txt --method bfs --json --emit-sequence --target b",
    "solve b.txt --method auto --emit-sequence --target c",
    "solve b.txt --target zz",
    "solve b.txt --time-budget 0",
    "solve b.txt --method dp --time-budget 1e-9",
    "solve b.txt --method bfs --time-budget 1e-9",
    "solve b.txt --method dp --time-budget 60",
    "solve missing.txt",
    "solve bad.txt",
    "solve",
    "reduce g.txt -o out.txt --meta meta.json",
    "reduce loop.txt -o loop_out.txt",
    "reduce missing.txt -o missing_out.txt",
    "reduce g.txt -o nodir/out.txt",
    "reduce g.txt -o meta_out.txt --meta nodir/meta.json",
    "verify",
    "verify --exhaustive 2 3",
    "verify --exhaustive 5 5",
    "verify --random 3 4 3 --seed 2",
    "verify --random 0 4 3",
    "verify --random 1 10 20",
    "verify --reduction",
    "gen --n 4 --colours 3 --seed 9",
    "gen --n 0 --colours 2",
    "bench --n-range 1..4 --colours 2",
    "bench --n-range 2..3 --colours 3 --json",
    "bench --n-range 4..2 --colours 2",
    "bench --n-range 10..10 --colours 20",
    "nosuchcommand",
]

MASKS = [
    (re.compile(r"\d+\.\d+ ms"), "... ms"),
    (re.compile(r'"millis": [-+.\deE]+'), '"millis": ...'),
    # A bench table row: n, value, millis, keys, sweeps.
    (re.compile(r"^(\s*\d+\s+\d+\s+)\d+\.\d+(\s+\d+\s+\d+)$", re.M), r"\1...\2"),
]


def mask(text):
    for pattern, repl in MASKS:
        text = pattern.sub(repl, text)
    return text


def run_tree(src):
    """(command, exit code, stdout, stderr) of each command, then one
    ("files", ...) record of the files the commands leave."""
    env = child_env(src)
    records = []
    with tempfile.TemporaryDirectory() as cwd:
        for name, text in FILES.items():
            with open(os.path.join(cwd, name), "w") as fh:
                fh.write(text)
        for command in COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "floodit", *command.split()],
                                  cwd=cwd, env=env, capture_output=True, text=True)
            records.append((command, proc.returncode, mask(proc.stdout), mask(proc.stderr)))
        files = []
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name)) as fh:
                files.append(f"== {name}\n{fh.read()}")
        records.append(("files", 0, "".join(files), ""))
    return records


def main(argv):
    sides = [side.split("=", 1) for side in argv]
    if len(sides) < 2 or any(len(side) != 2 for side in sides):
        sys.exit(__doc__)
    runs = {label: run_tree(src) for label, src in sides}
    (first, base), *others = runs.items()
    differ = False
    for label, records in others:
        for want, got in zip(base, records):
            if want != got:
                differ = True
                print(f"differs: {want[0]}")
                for side, (_, code, out, err) in ((first, want), (label, got)):
                    print(f"  {side}: exit {code}\n  stdout: {out!r}\n  stderr: {err!r}")
    if not differ:
        codes = [code for _, code, _, _ in base[:-1]]
        per_code = ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes)))
        print(f"identical: {len(codes)} commands ({per_code}) and the files they write")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
