"""Every function in ``src/`` runs on some simulator or CLI path, or is
named below with the reason it does not.

A fresh process traces, at function level, the CLI commands a user runs
and lists the ``src/`` functions no call reached.  Stubs (a body of a
docstring and ``...`` only, as abstract methods have) are left out.  A function that a
change leaves unreached fails this test until the change deletes it,
puts it on a path, or names it here.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

# Each function no traced path reaches, and why it stays.
UNREACHED = {
    "savi.group.base.OpCounter.mul": "only perfbench and tests read it; rounds take snapshot()",
    "savi.group.base.OpCounter.add": "only perfbench and tests read it; rounds take snapshot()",
    "savi.group.base.OpCounter.from_hash": "only perfbench and tests read it",
    "savi.group.base.GroupBackend.identity": "edge paths only: an empty row, a zero commitment",
    "savi.group.base.Point.__repr__": "debugging aid",
    "savi.group.dlog.BabyStepTable._giant": "honest aggregates need no giant step",
    "savi.group.multiexp.sum_points": "perfbench wraps it by name; goes with the benchmark "
    "refresh (ROADMAP item 22)",
    "savi.group.pool._ignore_interrupt": "runs in the forked workers, which are not traced",
    "savi.group.sodium.RistrettoBackend.decode_data": "unit tests only until replay "
    "(ROADMAP item 5)",
    "savi.harness.report._read_header": "message-log replay, ROADMAP item 5",
    "savi.harness.report.parse_message_log": "message-log replay, ROADMAP item 5",
    "savi.protocol.client.Client.respond_clear_shares": "dropout recovery, ROADMAP item 5",
    "savi.protocol.client.Client.accept_clear_share": "dropout recovery, ROADMAP item 5",
    "savi.zkp.integrity._identity_failure": "a client that passes its sigma proofs and fails "
    "the batch; no attack kind does (ROADMAP item 5)",
    "savi.protocol.errors.ShareVerifyFailedError.__init__": "too few blind shares verify; "
    "no attack kind tampers with shares",
    "savi.protocol.errors.DlogOutOfRangeError.__init__": "an aggregate outside its window; "
    "honest rounds stay inside",
}

# The traced run: two rounds on each backend with message logs, the mock
# one with a forger and the ristretto255 one large enough to fork h's
# workers and reuse them; the desk preset; a cost sweep; the sizing table.
_MOCK = (
    "n: 4\nm: 1\nd: 16\nk: 4\nrounds: 2\n"
    "attack: {kind: oversized_norm, scale: 40.0, malicious_ids: [2]}\n"
)
_RISTRETTO = "n: 3\nm: 1\nd: 64\nk: 16\nrounds: 2\nbackend: ristretto255\n"

_TRACE = """
import ast, json, sys, threading
from pathlib import Path

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
threading.setprofile(profile)
from savi.group import pool
from savi.harness.cli import main

pool.CORES = 3  # cut runs into slices, and fork workers, on any machine
out, mock, ristretto = sys.argv[1:4]
for args in (
    ["simulate", "--config", mock, "--out", out + "/mock", "--transcripts"],
    ["simulate", "--config", ristretto, "--out", out + "/ristretto", "--transcripts"],
    ["simulate", "--out", out + "/desk"],
    ["bench", "--sweep", "d=32", "--k", "2", "--comm"],
    ["params", "--k", "16", "--epsilon-log2", "-40", "--d", "64"],
):
    main(args, standalone_mode=False)
sys.setprofile(None)
threading.setprofile(None)


def stub(fn):  # a body of a docstring and ... only
    return all(
        isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
        and (s.value.value is ... or isinstance(s.value.value, str))
        for s in fn.body
    )


def functions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, prefix + child.name, child
            yield from functions(child, prefix + child.name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, prefix + child.name + ".")


root = Path(pool.__file__).resolve().parents[1]
unreached = []
for path in sorted(root.rglob("*.py")):
    module = ".".join(path.relative_to(root.parent).with_suffix("").parts)
    prefix = module.removesuffix(".__init__") + "."
    for first, name, fn in functions(ast.parse(path.read_text()), prefix):
        if (str(path), first) not in reached and not stub(fn):
            unreached.append(name)
print(json.dumps(unreached))
"""


def test_every_src_function_runs_on_a_cli_path(tmp_path):
    (tmp_path / "mock.yaml").write_text(_MOCK)
    (tmp_path / "ristretto.yaml").write_text(_RISTRETTO)
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-c", _TRACE, str(tmp_path), str(tmp_path / "mock.yaml"),
         str(tmp_path / "ristretto.yaml")],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    took = time.monotonic() - start
    assert run.returncode == 0, run.stderr
    assert sorted(json.loads(run.stdout.splitlines()[-1])) == sorted(UNREACHED)
    assert took < 10  # about 3.5 s on a shared 2-vCPU VM
