"""In-memory spans around the public functions of each savi module.

Nothing under ``src/`` knows about tracing: ``Tracer.install`` replaces
each traced function or method by a wrapper, in its class or in every
``savi.*`` module namespace that imported it by name, and ``uninstall``
puts the originals back.  A span is ``[name, start, end, parent, round,
note]``; ``parent`` is the index of the enclosing span (-1 at the top) and
``note`` holds a per-call quantity (terms, slots, bytes, verdict) or the
party id of a protocol span.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _targets():
    """(span name, owner, attribute, note(args, result) or None).

    An owner is a class (its method is replaced) or a module (the function
    is replaced wherever a savi module holds it).
    """
    # import_module, because the package attribute savi.group.multiexp is
    # the function of that name, not the module.
    def mod(name):
        return importlib.import_module(f"savi.{name}")

    commit, sampling, vsss = mod("commit"), mod("sampling"), mod("vsss")
    dlog, generators, multiexp = mod("group.dlog"), mod("group.generators"), mod("group.multiexp")
    sodium, attacks, simulate = mod("group.sodium"), mod("harness.attacks"), mod("harness.simulate")
    pairwise, integrity, rangeproof = mod("protocol.pairwise"), mod("zkp.integrity"), mod("zkp.rangeproof")
    sigma, vercrt = mod("zkp.sigma"), mod("zkp.vercrt")
    backend = sodium.RistrettoBackend
    return [
        ("group.mul", backend, "mul_data", None),
        ("group.add", backend, "add_data", None),
        ("group.add", backend, "sub_data", None),
        ("group.from_hash", backend, "from_uniform_data", None),
        ("group.multiexp", multiexp, "multiexp", lambda a, r: len(a[0])),
        ("group.sum_points", multiexp, "sum_points", None),
        ("group.dlog.table", dlog.BabyStepTable, "__init__", lambda a, r: a[2]),
        ("group.dlog.solve", dlog, "dlog_bounded", None),
        ("group.derive_generators", generators, "derive_generators", None),
        ("commit.commit_update", commit, "commit_update", None),
        ("commit.aggregate_commitments", commit, "aggregate_commitments", None),
        ("vsss.ss_share", vsss, "ss_share", None),
        ("vsss.ss_verify", vsss, "ss_verify", None),
        ("vsss.ss_recover", vsss, "ss_recover", None),
        ("vsss.combine_check_strings", vsss, "combine_check_strings", None),
        ("pairwise.keygen", pairwise, "keygen", None),
        ("pairwise.pairwise_key", pairwise, "pairwise_key", None),
        ("pairwise.seal_share", pairwise, "seal_share", None),
        ("pairwise.open_share", pairwise, "open_share", None),
        ("sampling.derive_seed", sampling, "derive_seed", None),
        ("sampling.sample_matrix", sampling, "sample_matrix", None),
        ("sampling.row_inner", sampling.SampleMatrix, "row_inner", None),
        ("sampling.weighted_combination", sampling.SampleMatrix, "weighted_combination", None),
        ("zkp.gen_integrity_proof", integrity, "gen_integrity_proof", None),
        ("zkp.ver_integrity_proof", integrity, "ver_integrity_proof", lambda a, r: r[1] or "accepted"),
        ("zkp.gen_range_proof", rangeproof, "gen_range_proof", lambda a, r: a[1] * len(a[2])),
        ("zkp.ver_range_proof", rangeproof, "ver_range_proof", None),
        ("zkp.gen_prf_wf", sigma, "gen_prf_wf", None),
        ("zkp.ver_prf_wf", sigma, "ver_prf_wf", None),
        ("zkp.gen_prf_sq", sigma, "gen_prf_sq", None),
        ("zkp.ver_prf_sq", sigma, "ver_prf_sq", None),
        ("zkp.ver_crt", vercrt, "ver_crt", None),
        ("serial.bundle", commit.CommitmentBundle, "to_bytes", lambda a, r: len(r)),
        ("serial.proof", integrity.IntegrityProof, "to_bytes", lambda a, r: len(r)),
        ("harness.generate_updates", attacks, "generate_updates", None),
        ("harness.apply_attack", attacks, "apply_attack", None),
        ("harness.forge", attacks, "forge_integrity_proof", None),
        ("harness.setup", simulate.Simulation, "__init__", None),
        ("harness.round", simulate.Simulation, "run_round", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round_no = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, note=None, tag=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round_no, tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("savi") and m]
        for name, owner, attr, note in _targets():
            original = getattr(owner, attr)
            traced = self.wrap(name, original, note)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        """One tab-separated line per span, times in ns from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tround\tname\tstart_ns\tend_ns\tnote\n")
            fh.writelines(
                f"{i}\t{parent}\t{rnd}\t{name}\t{round((start - t0) * 1e9)}\t"
                f"{round((end - t0) * 1e9)}\t{'' if note is None else note}\n"
                for i, (name, start, end, parent, rnd, note) in enumerate(self.spans)
            )

    def totals(self) -> dict[int, dict]:
        """Per round: span name -> calls, self and inclusive seconds, notes.

        Self time is a span's duration minus the time its child spans
        cover.  ``zkp.ver_crt`` is also split by its protocol ancestor into
        ``zkp.ver_crt.client`` (max over clients) and ``zkp.ver_crt.server``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        owner = [-1] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                owner[i] = owner[parent]
            if name.startswith("protocol."):
                owner[i] = i

        rounds: dict[int, dict] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self": 0.0, "total": 0.0, "notes": []})
        )
        crt_client: dict[int, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, rnd, note) in enumerate(spans):
            entry = rounds[rnd][name]
            entry["calls"] += 1
            entry["self"] += end - start - child[i]
            entry["total"] += end - start
            if note is not None:
                entry["notes"].append(note)
            if name == "zkp.ver_crt" and owner[i] >= 0:
                parent_name = spans[owner[i]][0]
                if parent_name.startswith("protocol.client."):
                    crt_client[rnd][spans[owner[i]][5]] += end - start - child[i]
                else:
                    rounds[rnd]["zkp.ver_crt.server"]["self"] += end - start - child[i]
        for rnd, per_client in crt_client.items():
            rounds[rnd]["zkp.ver_crt.client"]["self"] = max(per_client.values())
        return rounds
