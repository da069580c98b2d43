import csv
import dataclasses
import hashlib
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from savi.harness import (
    AttackSpec,
    SimulationConfig,
    apply_attack,
    desk_preset,
    emit_report,
    generate_updates,
    measure_communication,
    probe_costs,
    run_simulation,
)
from savi.harness.attacks import ForgingClient
from savi.harness.cli import main as cli_main
from savi.harness.config import deployment_preset
from savi.harness.report import parse_message_log, report_row, summary_row
from savi.harness.simulate import (
    MSG_BLIND_SHARE,
    MSG_BUNDLE,
    MSG_CLEAR_SHARES,
    MSG_FLAG_REPORT,
    MSG_PROOF,
    STAGES,
    Simulation,
)
from savi.commit import CommitmentBundle
from savi.protocol import Server
from savi.group import make_backend
from savi.group.dlog import BabyStepTable
from savi.group.generators import LAMBDA
from savi.sampling import SampleMatrix, pass_rate_F, sample_matrix
from savi.serial import U32, decode, encode
from savi.zkp import IntegrityProof, Transcript, integrity


def _tiny(**overrides):
    base = dict(n=5, m=0, d=8, k=16, epsilon_log2=-16, M=16, B=1.0,
                b_max=64, frac_bits=8, b_coord=16, seed=3)
    base.update(overrides)
    return desk_preset(**base)


# -- honest runs ---------------------------------------------------------------


def test_honest_round_exact_aggregate():
    reports = run_simulation(_tiny())
    assert len(reports) == 1
    rep = reports[0]
    assert rep.honest == (1, 2, 3, 4, 5)
    assert rep.excluded == {}
    assert rep.aggregate_ok
    assert rep.aggregate == rep.expected
    assert rep.honest_dropouts == ()
    assert rep.bad_blind_shares == ()


def test_multi_round_exact():
    reports = run_simulation(_tiny(rounds=3))
    assert [r.round_no for r in reports] == [1, 2, 3]
    aggs = {r.aggregate for r in reports}
    assert len(aggs) == 3  # fresh updates each round
    assert all(r.aggregate_ok for r in reports)


def test_deterministic_given_seed():
    a = run_simulation(_tiny(rounds=2))
    b = run_simulation(_tiny(rounds=2))
    for ra, rb in zip(a, b):
        assert ra.aggregate == rb.aggregate
        assert ra.honest == rb.honest
        assert ra.excluded == rb.excluded
        assert ra.bytes_sent == rb.bytes_sent
        assert ra.messages == rb.messages
        # timings are explicitly not part of the deterministic surface
    c = run_simulation(_tiny(rounds=2, seed=4))
    assert c[0].aggregate != a[0].aggregate


# The uplink of a fixed-seed round, proofs included, is pinned byte for
# byte.  Changing these bytes changes the wire format or the proofs.  A
# change of the format requires a bump of the transcript domain
# (savi/vN/transcript); a change of the prover's draws alone, whose
# proofs the same verifier accepts, does not.  Last re-pinned at savi/v10
# with the masks of the proof of smallness sized on the claims' reach W_v
# (drawn from [-(T + W_v), T + W_v]) in place of W; with masks of reach W
# these read
# 3a1b1cc71a8bbe720d0f3a773fc766d2cb4b91dd644fa4c222267fe4a917e899 and
# c81525f4d635fd4f2dbd29d37808b3b1459a5a8805eefc0fd985fcef2cfbe823.  At
# savi/v10 before that: domain bump and the square proof over H (with
# y_rho and H in tau, and no y_w); at savi/v9 (rho, tau and mu inline,
# with no length in front) these read
# dd41e260b8b9a7329f9cdc8785e2ab9e5a15736af71b541db60bf4391c35f4f2 and
# dc2ded15f4b50dffd4c00d612d06df36dd1ae3e7c0eff55246efa8dfa3c8ac6d; at
# savi/v8 (one commitment o' to the sum of
# squares, none to the projections, with the forgers named "square")
# these read
# acba85f1f9583db8cedcd02e0032575b2c0171cab888c7eb5cdd6ffab7605151 and
# 0c9f25175d61760f082d4fd33ae9bdd4513b91e108476ed4fa40f86daea5fbe4; at
# savi/v7 these read
# 9de84b3c78454f00e28335e692fa920df92f67fad14f23361c07af11a157264b and
# f71a87a36c008b3e0c4063ebfa4e460e5e3d89e373212fa75c576a22ea459932, with
# the forgers named "wellformed" (the proof of smallness in place of the
# projections' range proof); at savi/v6 these read
# f8967d49431fb959dac56045f052a7584af2ab56ab468c2b161ed05093573351 and
# ddf787c9673feec0043fe559aa6a26068f6a2d4874a90eba35518deb39e27419, and
# at savi/v5
# 98e109fc25d636c07526b7f49b88c5aabec4a46b90f63fddb4651235d3dd1061 and
# 0a759f1752839ba74c31c86eb3fb4a26563cd5430a0faeceb2f37a0910cbbb0d.
_PINNED_ROUNDS = [
    (
        dict(n=5, m=2, d=16, k=4, M=16, b_max=64, epsilon_log2=-16, seed=3,
             attack=AttackSpec("oversized_norm", scale=10.0, malicious_ids=(2, 4))),
        "95281126f63a9bf456b5b87230e3d629e112659224d17ead31be1e35146a37a8",
        (1, 3, 5),
        {2: "proof_square", 4: "proof_square"},
    ),
    (
        dict(n=3, m=1, d=4, k=1, M=1, b_max=32, epsilon_log2=-16, seed=3,
             backend="ristretto255",
             attack=AttackSpec("oversized_norm", scale=10.0, malicious_ids=(3,))),
        "2ef778ac7caa675b178255a3649a4b86c417e5963ef5483ece300dd025f35fd7",
        (1, 2),
        {3: "proof_square"},
    ),
]


@pytest.mark.parametrize(
    "fields,digest,honest,excluded", _PINNED_ROUNDS, ids=["mock", "ristretto255"]
)
def test_fixed_seed_uplink_pinned(fields, digest, honest, excluded):
    (rep,) = run_simulation(SimulationConfig(**fields))
    # by sender; sorting is stable, so each sender's payloads keep send order
    uplink = b"".join(payload for _, _, payload in sorted(rep.messages, key=lambda m: m[1]))
    assert hashlib.sha256(uplink).hexdigest() == digest
    assert (rep.honest, rep.excluded, rep.aggregate_ok) == (honest, excluded, True)


def test_round_with_forgers_samples_the_matrix_once_per_party(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return sample_matrix(*args)

    # every savi module that holds the function by name, not only the parties
    for name, module in list(sys.modules.items()):
        if name.startswith("savi") and getattr(module, "sample_matrix", None) is sample_matrix:
            monkeypatch.setattr(module, "sample_matrix", counted)
    fields = _PINNED_ROUNDS[0][0]
    sim = Simulation(SimulationConfig(**fields))
    assert {i for i, c in sim.clients.items() if isinstance(c, ForgingClient)} == {2, 4}
    rep = sim.run_round(1)
    assert rep.excluded == {2: "proof_square", 4: "proof_square"}
    assert len(calls) == fields["n"] + 1


def test_round_with_forgers_projects_each_update_once(monkeypatch):
    calls = []
    row_inner = SampleMatrix.row_inner

    def counted(matrix, u):
        calls.append(matrix)  # held, so no two matrices share an id
        return row_inner(matrix, u)

    monkeypatch.setattr(SampleMatrix, "row_inner", counted)
    fields = _PINNED_ROUNDS[0][0]
    rep = Simulation(SimulationConfig(**fields)).run_round(1)
    assert rep.excluded == {2: "proof_square", 4: "proof_square"}
    # one call per client, each on the matrix that client sampled
    assert len(calls) == len({id(m) for m in calls}) == fields["n"]


def test_two_round_uplink_pinned():
    # round 2's proofs hash the server's round-2 nonce, which follows the
    # server's round-1 nonce and nothing else: verification draws from a
    # child stream
    fields = dict(_PINNED_ROUNDS[0][0], rounds=2)
    reps = run_simulation(SimulationConfig(**fields))
    uplink = b"".join(
        payload for rep in reps for _, _, payload in sorted(rep.messages, key=lambda m: m[1])
    )
    # re-pinned with the masks of the proof of smallness sized on the
    # claims' reach (no format change); with masks of reach W
    # 950283bd7624c0da1962a945f46dfc102c209556f0037a17bebd3607524f3a62,
    # and at savi/v10 before that: domain bump and the square proof over
    # H; at savi/v9 (the sub-proofs inline)
    # 5eb9e23e03c5a8ebf16c68deb6eec7391fbd48945538d141e2d0c133f739892e,
    # at savi/v8 (one commitment to the squares)
    # 22a2e4ffad541bac27a842bff5a55fce0c83570ddef00dd6f32fffb339876fd3,
    # at savi/v7 (the proof of smallness)
    # 323109a807be5d5694fa4b60a167e44bf84a224f4e4fdc8848d652381ac53d60, at
    # savi/v6
    # 871bdb65fd8236122c4bd69c42036bbbdad5ca1ba07b3b626d336280fb5b46ce, at
    # savi/v5 17a59a4f3c18b4566ad30563c0cf3a6a2d597cc666fa264e477443654f482bc9
    assert hashlib.sha256(uplink).hexdigest() == (
        "9fe368d1b3bccaa335401ee5ae41497e35001651736c2a8f1b1e8f8ab43c0d80"
    )


def test_crowd_attack_verdicts_pinned():
    # crowd_attack's shape on the mock: the exact sigma verifiers and the
    # round's one consistency weight vector keep the verdicts and reasons
    # of the batched verifiers (one weight vector per client) before them.
    # The forgers' lie is in o', so the square proof names them (at
    # savi/v7 the well-formedness proof, which tied e_star to o)
    attack = AttackSpec("oversized_norm", scale=40.0, malicious_ids=(4, 9, 11))
    (rep,) = run_simulation(
        SimulationConfig(n=12, m=3, d=64, k=8, seed=1, backend="mock", attack=attack)
    )
    assert rep.honest == (1, 2, 3, 5, 6, 7, 8, 10, 12)
    assert rep.excluded == {i: "proof_square" for i in (4, 9, 11)}
    assert rep.aggregate_ok


def test_no_proof_moves_a_later_nonce():
    # the same seed with and without forgers: the round-1 verdicts
    # differ, and so do the verification draws behind them, but the
    # round-2 matrix seed does not
    fields = dict(_PINNED_ROUNDS[0][0], rounds=2)
    seeds = []
    for attack in (fields["attack"], AttackSpec()):
        sim = Simulation(SimulationConfig(**dict(fields, attack=attack)))
        first = sim.run_round(1)
        sim.run_round(2)
        seeds.append((bool(first.excluded), sim.server.seed))
    assert seeds[0][0] and not seeds[1][0]
    assert seeds[0][1] == seeds[1][1]


def test_proof_verification_op_count_pinned():
    # every client's range proofs share one multiexp over the slot bases;
    # checked one proof at a time this round cost 14,930 muls, and at
    # power-of-two widths (512 + 128 slots, not 320 + 64) 3,077.  The
    # sigma proofs are checked exactly, recomputing their announcements:
    # 11k+5 muls and 8k+3 adds a proof, where their batched check of the
    # announcements cost 9k+9 muls and 9k+7 adds (2,613 muls, 2,712 adds).
    # M is derived (2^11: 192 + 48 slots); at M = 2^20 (320 + 64 slots)
    # this round cost 2,733 muls and 2,592 adds.  Bulletproofs' two
    # identities a proof (u, S, T1 and T2 where Bulletproofs+ has A1 and
    # B1) cost 2,437 muls and 2,296 adds.  One consistency check covers
    # the set, and its sums are the y and e_star columns: checked per
    # client, e_star cost d + k + 1 = 73 muls more for each of the other
    # nine clients (2,416 muls and 2,275 adds).  The links of the proofs
    # of smallness share the 128 G_j, and each adds Y and t_link to the
    # batch; with the projections' range proofs (192 slots) in the batch
    # this round cost 1,759 muls and 2,293 adds.  With commitments o and
    # o'_t to the projections and their squares (savi/v7), the sigma
    # proofs cost 11k + 5 muls a client, 3k - 5 more than 8k + 10 now (1,379
    # muls and 1,843 adds).  Without H in the square proof (savi/v9) they
    # cost 8k + 7 muls, 3 muls and 3 adds fewer a client (1,159 muls and
    # 1,623 adds)
    (rep,) = run_simulation(SimulationConfig(n=10, m=4, d=64, k=8, seed=1, backend="mock"))
    assert rep.honest == tuple(range(1, 11))
    assert rep.group_ops["proof_ver"] == {"mul": 1189, "add": 1653, "from_hash": 0}
    assert rep.group_ops["proof_ver"]["mul"] <= 4000


def test_proof_generation_op_count_pinned():
    # the range prover carries its fold factors and builds A from +-1
    # additions; folding explicitly, this round cost 79,180 muls and
    # 58,900 adds, and at power-of-two widths (512 + 128 slots, not
    # 320 + 64) 53,580 muls and 58,860 adds.  The well-formedness prover
    # computes each x_i g once for t_i and t*_i; computing it for both
    # cost k muls more a proof (32,540 muls).  M is derived (2^11: 192 +
    # 48 slots); at M = 2^20 (320 + 64 slots) this round cost 32,460 muls
    # and 35,570 adds.  The Bulletproofs prover, with S, T1 and T2, cost
    # 20,900 muls and 22,610 adds, and the Bulletproofs+ range proof on
    # the projections 16,500 muls and 18,250 adds, where the proof of
    # smallness costs 129 muls a try and 129 for its announcement.  At
    # M = 2^11 (the rounding term sqrt(kd)/(2M), before rho(k)/(2M) gave
    # 2^10) this round cost 7,765 muls and 7,652 adds: b_max is 48 at
    # both, and the transcripts, so the tries, differ.  With commitments o
    # and o'_t (savi/v7) it cost 8,279 muls and 8,162 adds: a client's
    # commitments and sigma announcements cost 13k + 5 muls there and
    # 8k + 8 here, but the new transcripts draw ten more tries of the
    # proof of smallness in all, 129 muls each (10 x 129 - 10 x 37 = 919).
    # At savi/v8 it cost 9,198 muls and 9,221 adds: the new transcripts
    # draw other challenges R, whose accepted tries hold three all-zero
    # rows where they held five, and such a row gives the link's
    # announcement a zero scalar, which costs no mul and no add.  At
    # savi/v9 it cost 9,200 muls and 9,223 adds: H costs k + 3 = 11 muls
    # more a client, and the new transcripts leave two all-zero rows in
    # the accepted tries where there were three (the tries, 27 in all,
    # are the same).  With the masks sized on W, not on the claims' reach,
    # it cost 9,311 muls and 9,324 adds: 27 tries where there are now 10,
    # one a client, and 2 all-zero rows in the accepted tries where there
    # are now 7 (17 x 129 + 5 = 2,198 muls, 17 x 128 + 5 = 2,181 adds;
    # counted in a run)
    (rep,) = run_simulation(SimulationConfig(n=10, m=4, d=64, k=8, seed=1, backend="mock"))
    assert rep.honest == tuple(range(1, 11))
    assert rep.group_ops["proof_gen"] == {"mul": 7113, "add": 7143, "from_hash": 0}
    assert rep.group_ops["proof_gen"]["mul"] <= 56_000
    # the sum of the honest commitments starts from the first vector, not
    # from d identities (this stage counted 9,976 adds when it did), and
    # each dlog starts its search at 0 (from -bound: 112 muls, 9,912 adds)
    # over a table of sqrt(2*bound) entries (sized for targets spread over
    # the whole bound: 111 muls, 5,304 adds).  The sum of the honest
    # commitments comes from the consistency check of stage 3; summed
    # here, it cost d = 64 adds for each of nine clients (1,534 adds)
    assert rep.group_ops["aggregate"] == {"mul": 110, "add": 958, "from_hash": 0}


def test_commit_op_count_pinned():
    # u_l g comes from g's radix-256 table, so a client's commitment is
    # d + t muls: r w_l for each coordinate and t Feldman points, the
    # first of which is z = r g (computed twice, d + t + 1 muls, until
    # the bundle stopped sending z apart from the check string).  With u_l g as a mul this round cost 1,236 muls and 602
    # adds, and round 2 1,255 muls and 611 adds.  Round 1's 254 extra
    # adds build the table's level 0, once per deployment (every |u_l|
    # is below 256 here, so each nonzero coordinate costs one add).
    fields = dict(n=10, m=4, d=64, k=8, seed=1, backend="mock", rounds=2)
    first, second = run_simulation(SimulationConfig(**fields))
    n, d, t = 10, 64, 5
    assert first.group_ops["commit"] == {"mul": n * (d + t), "add": 602 + 254, "from_hash": 0}
    assert second.group_ops["commit"] == {"mul": n * (d + t), "add": 611, "from_hash": 0}
    # the same muls on ristretto255 (n=3, d=4, t=2)
    (rep,) = run_simulation(SimulationConfig(**_PINNED_ROUNDS[1][0]))
    assert rep.group_ops["commit"]["mul"] == 3 * (4 + 2)


def test_every_server_call_is_metered_under_a_named_stage(monkeypatch):
    # the round's stages are exactly STAGES, in order, and the server's
    # receipt of the bundles counts towards "commit"
    receive = Server.receive_bundles

    def slow(server, bundles):
        time.sleep(0.05)
        return receive(server, bundles)

    monkeypatch.setattr(Server, "receive_bundles", slow)
    (rep,) = run_simulation(SimulationConfig(n=3, m=1, d=8, k=4, seed=1, backend="mock"))
    assert tuple(rep.timings_s) == tuple(rep.group_ops) == STAGES
    assert rep.timings_s["commit"] >= 0.05


def test_server_builds_the_dlog_table_once(monkeypatch):
    # the first aggregate builds baby steps for all n clients' updates,
    # and later rounds reuse them; set-up builds none
    sizes = []
    init = BabyStepTable.__init__

    def counted(self, base, size):
        sizes.append(size)
        init(self, base, size)

    monkeypatch.setattr(BabyStepTable, "__init__", counted)
    sim = Simulation(_tiny(n=4, m=1, d=6, k=2))
    assert sizes == []
    reports = [sim.run_round(1), sim.run_round(2)]
    assert all(rep.aggregate_ok for rep in reports)
    assert sizes == [math.isqrt(2 * 4 * ((1 << 15) - 1) + 1) + 1]


def test_server_decodes_w_once(monkeypatch):
    from savi.group import edwards

    decoded = []
    decode = edwards.decode

    def counted(raw):
        decoded.append(raw)
        return decode(raw)

    monkeypatch.setattr(edwards, "decode", counted)
    sim = Simulation(_tiny(n=3, m=1, d=6, k=2, backend="ristretto255"))
    assert decoded == []
    sim.run_round(1)
    sim.run_round(2)
    assert decoded == [p.data for p in sim.gens.w]


# -- attacks -------------------------------------------------------------------


def test_generate_updates_shape_and_norms():
    ups = generate_updates(seed=5, n=40, d=32, B=2.5)
    assert len(ups) == 40
    norms = [float(np.linalg.norm(u)) for u in ups]
    assert all(0.0 < x <= 2.5 for x in norms)
    assert generate_updates(5, 40, 32, 2.5)[0].tolist() == ups[0].tolist()


def test_generate_updates_norms_uniform():
    norms = [
        float(np.linalg.norm(u)) / 3.0
        for u in generate_updates(seed=11, n=4000, d=16, B=3.0)
    ]
    res = stats.kstest(norms, stats.uniform.cdf)
    assert res.pvalue > 1e-3


def test_apply_attack_kinds():
    spec_err = dict(B=1.0, seed=9)
    ups = generate_updates(seed=8, n=4, d=16, B=1.0)
    flipped = apply_attack(AttackSpec("sign_flip", scale=2.0, malicious_ids=(2,)), ups, **spec_err)
    assert np.allclose(flipped[1], -2.0 * ups[1])
    assert np.allclose(flipped[0], ups[0])  # victims only
    scaled = apply_attack(AttackSpec("scaling", scale=3.0, malicious_ids=(1, 3)), ups, **spec_err)
    assert np.allclose(scaled[0], 3.0 * ups[0])
    assert np.allclose(scaled[2], 3.0 * ups[2])
    noisy = apply_attack(AttackSpec("additive_noise", noise=0.5, malicious_ids=(4,)), ups, **spec_err)
    assert not np.allclose(noisy[3], ups[3])
    over = apply_attack(AttackSpec("oversized_norm", scale=7.0, malicious_ids=(2,)), ups, **spec_err)
    assert math.isclose(float(np.linalg.norm(over[1])), 7.0, rel_tol=1e-9)
    same = apply_attack(AttackSpec(), ups, **spec_err)
    assert all(np.array_equal(a, b) for a, b in zip(same, ups))


def test_attack_spec_validation():
    with pytest.raises(ValueError):
        AttackSpec("meteor", malicious_ids=(1,))
    with pytest.raises(ValueError):
        AttackSpec("scaling", scale=2.0)  # no ids
    assert AttackSpec("additive_noise", noise=0.1, malicious_ids=(1,)).norm_ratio(1.0, 100) == 1.0 + 6.0
    assert AttackSpec().norm_ratio(1.0, 100) == 1.0


def test_oversized_norm_attacker_rejected_in_full_round():
    cfg = _tiny(n=4, m=1, k=64, d=16,
                attack=AttackSpec("oversized_norm", scale=5.0, malicious_ids=(2,)))
    # the norm check at this c is effectively a coin with no heads
    p = cfg.check_parameters()
    assert pass_rate_F(5.0, p.k, p.epsilon, p.d, p.M) < 1e-12
    rep = run_simulation(cfg)[0]
    # its lie is in o' (at savi/v7 in o, and it was named "wellformed")
    assert rep.excluded == {2: "proof_square"}
    assert rep.honest == (1, 3, 4)
    assert rep.aggregate_ok  # aggregate matches the honest-only sum
    assert rep.proof_reasons == {2: "square"}


def test_scaling_attacker_rejected_in_full_round():
    cfg = _tiny(n=4, m=1, k=64, d=16, B=1.0, b_coord=16,
                attack=AttackSpec("scaling", scale=6.0, malicious_ids=(3,)))
    rep = run_simulation(cfg)[0]
    assert 3 in rep.excluded
    assert rep.aggregate_ok


def test_sign_flip_at_unit_scale_is_out_of_scope():
    # norm-preserving flips pass the norm check by design; the report
    # documents inclusion rather than pretending to catch them
    cfg = _tiny(n=4, m=1, k=32, d=16,
                attack=AttackSpec("sign_flip", scale=1.0, malicious_ids=(2,)))
    rep = run_simulation(cfg)[0]
    assert rep.excluded == {}
    assert 2 in rep.honest
    assert rep.aggregate_ok  # expected sum includes the flipped update


def test_forged_proof_never_opens_honest_aggregate():
    # the attacked round's aggregate equals the honest members' sum
    cfg = _tiny(n=5, m=1, k=64, d=8,
                attack=AttackSpec("oversized_norm", scale=8.0, malicious_ids=(4,)))
    rep = run_simulation(cfg)[0]
    assert rep.honest == (1, 2, 3, 5)
    assert rep.aggregate == rep.expected
    assert rep.aggregate_ok


# -- reports and artifacts -------------------------------------------------------


def test_report_rows_and_files(tmp_path):
    cfg = _tiny(rounds=2)
    reports = run_simulation(cfg)
    rows = [report_row(r) for r in reports]
    assert rows[0]["round"] == 1
    assert rows[0]["n_honest"] == 5
    assert rows[0]["aggregate_ok"] == 1  # stored 0/1 so the CSV mean works
    summary = summary_row(rows)
    assert summary["round"] == "mean"
    assert summary["n_honest"] == 5.0

    paths = emit_report(reports, cfg, tmp_path)
    by_ext = {p.suffix: p for p in paths}
    assert set(by_ext) == {".csv", ".json"}

    with open(by_ext[".csv"]) as fh:
        rows_csv = list(csv.DictReader(fh))
    assert len(rows_csv) == 3  # 2 rounds + summary
    assert rows_csv[0]["round"] == "1"
    assert rows_csv[-1]["round"] == "mean"

    doc = json.loads(by_ext[".json"].read_text())
    assert doc["config"]["n"] == 5
    assert doc["params"] == dataclasses.asdict(cfg.check_parameters())
    assert len(doc["rounds"]) == 2
    # identical data through both formats
    assert str(doc["rounds"][0]["bytes_total"]) == rows_csv[0]["bytes_total"]
    assert doc["summary"]["round"] == "mean"


def test_message_log_replay(tmp_path):
    from savi.harness.report import emit_message_log

    cfg = _tiny(rounds=2, n=4, m=1,
                attack=AttackSpec("oversized_norm", scale=6.0, malicious_ids=(1,)))
    reports = run_simulation(cfg)
    log = emit_message_log(reports, cfg, tmp_path)
    header, records = parse_message_log(log)
    # savi/v9 until the square proof over H, savi/v8 until the sub-proofs
    # went inline, savi/v7 until one commitment to the squares, savi/v6
    # until the proof of smallness, savi/v5 until Bulletproofs+
    assert header.domain == "savi/v10"
    assert header.params == cfg.check_parameters()
    per_client = {}
    kinds = set()
    rounds_seen = set()
    wire_type = {
        MSG_BUNDLE: CommitmentBundle,
        MSG_FLAG_REPORT: tuple[U32, ...],
        MSG_PROOF: IntegrityProof,
        MSG_BLIND_SHARE: int,
    }
    backend = make_backend(header.backend)
    for kind, round_no, sender, payload in records:
        kinds.add(kind)
        rounds_seen.add(round_no)
        per_client[(round_no, sender)] = per_client.get((round_no, sender), 0) + len(payload)
        value = decode(wire_type[kind], payload, backend)
        assert encode(wire_type[kind], value) == payload
        if kind == MSG_FLAG_REPORT:
            assert value == ()
    assert rounds_seen == {1, 2}
    assert kinds == {MSG_BUNDLE, MSG_FLAG_REPORT, MSG_PROOF, MSG_BLIND_SHARE}
    for rep in reports:
        for i, sent in rep.bytes_sent.items():
            assert per_client[(rep.round_no, i)] == sent


def test_message_log_rejects_a_truncated_or_garbled_header(tmp_path):
    from savi.harness.report import emit_message_log

    cfg = _tiny(n=3, m=1, d=4, k=4)
    log = emit_message_log(run_simulation(cfg), cfg, tmp_path)
    blob = log.read_bytes()
    start = blob.index(b"{")
    header_end = start + int.from_bytes(blob[start - 4:start], "little")
    doc = blob[start:header_end]
    assert parse_message_log(log)[0].backend == "mock"

    def framed(raw: bytes) -> bytes:
        return b"savi-messages\n" + len(raw).to_bytes(4, "little") + raw

    def swap(old: bytes, new: bytes) -> bytes:
        assert old in doc
        return framed(doc.replace(old, new))

    bad = tmp_path / "bad.log"
    for cut in range(0, header_end, 7):
        bad.write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            parse_message_log(bad)
    garbled = [
        b"savi-massages\n" + blob[14:],
        framed(b"not json"),
        framed(b"[1, 2]"),
        swap(b'"backend"', b'"backnd"'),
        swap(b'"k": 4', b'"k": "4"'),
        swap(b'"k": 4', b'"k": 4, "z": 1'),
        swap(b'"backend": "mock"', b'"backend": 7'),
    ]
    for raw in garbled:
        bad.write_bytes(raw + blob[header_end:])
        with pytest.raises(ValueError):
            parse_message_log(bad)


def test_no_clear_share_traffic_without_flags():
    cfg = _tiny(n=5, m=1)
    sim = Simulation(cfg)
    rep = sim.run_round(1)
    assert MSG_CLEAR_SHARES not in {m[0] for m in rep.messages}


# -- cost probes ----------------------------------------------------------------


def test_probe_costs_stage_structure():
    row = probe_costs(d=64, k=8)
    assert row.d == 64 and row.k == 8
    assert set(row.ops) == {
        "commit", "server_prep", "client_check_h", "client_proof", "server_verify"
    }
    assert all(row.stage_total(s) > 0 for s in row.ops)


def test_commit_linear_proof_sublinear_in_d():
    small, big = probe_costs(d=64, k=8), probe_costs(d=256, k=8)
    commit_growth = big.stage_total("commit") / small.stage_total("commit")
    proof_growth = big.stage_total("client_proof") / small.stage_total("client_proof")
    assert commit_growth > 3.0  # ~linear in d
    assert proof_growth < 1.6  # dominated by k, not d
    assert proof_growth < commit_growth


@pytest.mark.parametrize("d,k", [(32, 2), (64, 4)])
def test_mock_op_counts_equal_ristretto(d, k, monkeypatch):
    # both backends run the same multiexp loop, so mock counts are the
    # work ristretto255 does.  The proof of smallness' R is the one input
    # that differs: it hashes point encodings, and sets the number of
    # tries and which rows of the link's announcement are zero.  So R is
    # fixed here, the same on both backends.
    fixed = integrity._challenge_rows(Transcript("fixed-R"), make_backend("mock").base(), k)
    monkeypatch.setattr(integrity, "_challenge_rows", lambda tr, y_commit, k_: fixed)
    assert probe_costs(d, k, "mock").ops == probe_costs(d, k, "ristretto255").ops


def test_client_proof_probe_op_count_pinned():
    # the probe runs the deployment preset's check parameters: M is
    # derived (2^10; 2^12 with the rounding term sqrt(kd)/(2M)) and B0 has
    # 44 bits here (48 at 2^12), so b_max=48, and b_ip was 28 (448 + 48
    # slots).  At M = 2^24, B0 had 72 bits, so b_ip=40 and
    # b_max=80 (640 + 80 slots), and this probe cost 6,204 muls and 6,821
    # adds; the power-of-two widths 64 and 128 cost 9,784 muls.  (The
    # probe's former private widths 32 and 64 cost 5,140 muls, and with
    # explicit folding and one mul per bit of A, 7,476; with x_i g
    # computed twice in the well-formedness proof, 6,220; with the
    # Bulletproofs prover, 4,410 muls and 4,805 adds.)  Every figure above
    # also counts the client's check of h, which now has its own row:
    # the proof and the check together cost 3,474 muls and 3,873 adds.
    # With the Bulletproofs+ range proof on the projections in place of
    # the proof of smallness, the proof alone cost 3,201 muls and 3,602
    # adds here.  With M derived from sqrt(kd)/(2M) (2^12) the proof cost
    # 898 muls and 848 adds in two tries; at M = 2^10 it takes one.  With
    # commitments o and o'_t (savi/v7) it cost 769 muls and 720 adds, 5k - 3
    # muls more.  Without H (savi/v9) it cost 692 muls and 674 adds, k + 3
    # muls and k + 2 adds fewer
    row = probe_costs(256, 16)
    ops = row.ops
    assert row.tries == 1
    assert ops["client_check_h"] == {"mul": 273, "add": 271, "from_hash": 0}
    assert ops["client_proof"] == {"mul": 711, "add": 692, "from_hash": 0}
    assert ops["client_check_h"]["mul"] + ops["client_proof"]["mul"] <= 6_700
    # proof_heavy's shape (b_max = 48; 1,005 muls and 886 adds at
    # b_max = 56, M = 2^12, in one try); with the check of h, 6,418 muls
    # and 7,209 adds with the projections' range proof (896 slots, 6,129
    # muls and 6,922 adds for the proof alone), and 8,250 and 9,037 with
    # the Bulletproofs prover.  At savi/v7 (commitments o and o'_t) it
    # took one try, for 977 muls and 848 adds; with the masks sized on W it
    # took three (855 + 2 x 129 muls and 788 + 2 x 128 adds), and on the
    # claims' reach it takes one (820 muls and 754 adds without H, at
    # savi/v9)
    row = probe_costs(256, 32)
    ops = row.ops
    assert row.tries == 1
    assert ops["client_check_h"] == {"mul": 289, "add": 287, "from_hash": 0}
    assert ops["client_proof"] == {"mul": 855, "add": 788, "from_hash": 0}


def test_probe_reports_the_tries_of_the_proof_of_smallness():
    # four seeds that take 1, 2, 3 and 2 tries: each try past the first
    # costs LAMBDA + 1 muls (its masks' commitment Y) and LAMBDA adds, so
    # the proofs cost the same once the tries are factored out.  The
    # probe's claims reach about 0.1-0.2 W, so a proof retries about once
    # in 20; seeds 1-1,499 hold three of 3 tries and none of more.  (Seeds
    # 7, 17, 18 and 11 took 1, 4, 2 and 6 tries with the masks sized on W,
    # and 1 try each on the claims' reach; seeds 7, 8, 10 and 11 took 1,
    # 3, 2 and 4 tries at savi/v7, for 769 muls and 720 adds; these
    # seeds' proofs cost 692 muls and 674 adds at savi/v9)
    rows = [probe_costs(256, 16, seed=seed) for seed in (7, 57, 470, 78)]
    assert [row.tries for row in rows] == [1, 2, 3, 2]
    assert {
        (row.ops["client_proof"]["mul"] - (row.tries - 1) * (LAMBDA + 1),
         row.ops["client_proof"]["add"] - (row.tries - 1) * LAMBDA)
        for row in rows
    } == {(711, 692)}


def test_comm_probe_equals_bytes_a_client_sends():
    fields = dict(n=5, m=1, d=64, k=4)
    probe = measure_communication(**fields, seed=11)
    (rep,) = run_simulation(deployment_preset(**fields, backend="mock", seed=11))
    assert rep.honest == (1, 2, 3, 4, 5)
    assert set(rep.bytes_sent.values()) == {probe.total_bytes}


def test_comm_probe_proof_parts_add_up():
    # one part per field of the proof, in wire order, each its field's
    # encoding, so they sum to the proof with no framing term (at savi/v8,
    # five parts "e_star+o_prime", "Y+z", "rho", "tau" and "mu", none
    # counting the 4-byte count or length in front of five of the seven
    # fields; at savi/v7, eight fields, seven behind one, with o and k
    # points o'_t in "e_star+o+o_prime"; at savi/v6, seven fields each
    # behind one, with "sigma" where "Y+z" was)
    rep = measure_communication(d=64, k=4)
    parts = rep.proof_parts
    assert list(parts) == ["e_star", "o_prime", "masks", "z", "rho", "tau", "mu"]
    assert sum(parts.values()) == rep.proof_bytes
    # a count, then k+1 points; o' and Y a point each
    assert (parts["e_star"], parts["o_prime"], parts["masks"]) == (4 + 32 * (4 + 1), 32, 32)
    # the sigma proofs in their (c, s) form, rho with the link's y_sigma
    # and t_link, tau with y_rho and H (tau 104 + 64k bytes at savi/v9,
    # with y_w; 3k + 1 points, and 168 + 64k and 44 + 96k bytes at
    # savi/v7), inline
    assert (parts["rho"], parts["tau"]) == (164 + 32 * 4, 164 + 32 * 4)
    # a length, then 128 packed answers of w = (2T).bit_length() bits each
    params = deployment_preset(d=64, k=4).check_parameters()
    assert parts["z"] == 4 + 128 * params.z_width // 8


def test_comm_probe_measures_the_widths_of_d():
    # at d=1024, k=16 the widths derived from B0 (b_max 56 and T) are not
    # those of the probe's small rounds at d'=16 (b_max 48), so those
    # rounds run with the widths of d, as a proof made at d has them
    fields = dict(d=1024, k=16)
    wide, small = (deployment_preset(**fields).check_parameters(),
                   deployment_preset(d=16, k=16).check_parameters())
    assert (wide.b_max, wide.z_bound) != (small.b_max, small.z_bound)
    probe = measure_communication(**fields, seed=11)
    (rep,) = run_simulation(deployment_preset(n=1, m=0, **fields, backend="mock", seed=11))
    (payload,) = [p for kind, _, p in rep.messages if kind == MSG_PROOF]
    proof = IntegrityProof.from_bytes(payload, make_backend("mock"))
    assert probe.proof_bytes == len(payload)
    assert probe.proof_parts == {
        "e_star": 4 + 32 * len(proof.e_star),
        "o_prime": 32,
        "masks": 32,
        "z": 4 + len(proof.z),
        **{part: len(getattr(proof, part).to_bytes()) for part in ("rho", "tau", "mu")},
    }


def test_proof_cost_grows_with_k():
    # compared at one try of the proof of smallness each, since a try
    # costs LAMBDA + 1 muls whatever k is and the two probes may differ
    # (they drew 2 and 1 with the masks sized on W, 1 each on the claims'
    # reach; the test compared 1.5x the totals, tries and all, which the
    # tries decided).  A client's commitments and sigma announcements cost
    # 9k + 11 muls (8k + 8 at savi/v9, without H; 13k + 5 at savi/v7, with
    # o and o'_t)
    small, big = probe_costs(d=64, k=8), probe_costs(d=64, k=32)

    def one_try(row):
        return row.ops["client_proof"]["mul"] - (row.tries - 1) * (LAMBDA + 1)

    assert one_try(big) - one_try(small) >= 9 * (32 - 8)


# -- config ----------------------------------------------------------------------


def test_config_yaml_roundtrip(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text(
        "n: 4\nm: 1\nd: 8\nk: 16\nepsilon_log2: -16\nM: 16\nb_max: 64\n"
        "seed: 9\nrounds: 2\n"
        "attack:\n  kind: scaling\n  scale: 2.0\n  malicious_ids: [2]\n"
    )
    cfg = SimulationConfig.from_yaml(path)
    assert cfg.n == 4
    assert cfg.rounds == 2
    assert cfg.attack == AttackSpec("scaling", scale=2.0, malicious_ids=(2,))


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown config keys"):
        SimulationConfig.from_dict({"n": 4, "m": 0, "d": 8, "k": 4, "banana": 1})
    with pytest.raises(ValueError, match="bogus"):
        SimulationConfig.from_dict({"n": 4, "m": 0, "d": 8, "k": 4, "attack": {"bogus": 1}})
    with pytest.raises(ValueError, match="malicious_ids"):
        SimulationConfig.from_dict(
            {"n": 4, "m": 1, "d": 8, "k": 4, "attack": {"kind": "scaling", "malicious_ids": 3}}
        )


@pytest.mark.parametrize(
    "raw,field",
    [
        ({"n": "4"}, "n"),
        ({"seed": "3"}, "seed"),
        ({"rounds": 1.5}, "rounds"),
        ({"rounds": True}, "rounds"),
        ({"b_ip": 40.0}, "b_ip"),
        ({"b_max": "64"}, "b_max"),
        ({"B": "1.0"}, "B"),
        ({"B": False}, "B"),
        ({"backend": 1}, "backend"),
        ({"attack": {"kind": "scaling", "scale": "big", "malicious_ids": [1]}}, "attack.scale"),
        ({"attack": {"kind": "scaling", "malicious_ids": [1, "x"]}}, "attack.malicious_ids"),
        ({"attack": {"kind": "scaling", "scale": float("nan"), "malicious_ids": [1]}},
         "attack.scale"),
        ({"attack": {"kind": "additive_noise", "noise": float("nan"), "malicious_ids": [1]}},
         "attack.noise"),
        ({"B": float("nan")}, "B"),
        ({"B": float("inf")}, "B"),
        ({"B": 2**2000}, "B"),
    ],
)
def test_config_rejects_mistyped_values(raw, field):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be"):
        SimulationConfig.from_dict({"n": 4, "m": 1, "d": 8, "k": 4, **raw})


def test_config_accepts_declared_types():
    cfg = SimulationConfig.from_dict(
        {"n": 4, "m": 1, "d": 8, "k": 4, "B": 2, "b_ip": None, "b_max": 64,
         "attack": {"kind": "scaling", "scale": 2, "malicious_ids": [1]}}
    )
    assert (cfg.B, cfg.b_ip, cfg.attack.scale) == (2, None, 2)
    assert cfg.check_parameters().b_max == 64


def test_b_ip_is_accepted_and_ignored():
    # the benchmark's warm-up shape still sets b_ip, which sized the
    # projections' range proof; the proof of smallness needs no width
    fields = dict(n=3, m=1, d=4, k=1, M=1, b_max=32)
    assert (
        SimulationConfig(**fields, b_ip=16).check_parameters()
        == SimulationConfig(**fields).check_parameters()
    )


def test_config_validation_errors():
    with pytest.raises(ValueError):
        _tiny(rounds=0)
    with pytest.raises(ValueError):
        _tiny(workers=0)
    with pytest.raises(ValueError, match="seed"):
        _tiny(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        _tiny(seed=1 << 128)
    with pytest.raises(ValueError):
        _tiny(backend="gpu")
    with pytest.raises(ValueError):
        _tiny(m=1, attack=AttackSpec("scaling", scale=2.0, malicious_ids=(9,)))
    with pytest.raises(ValueError):
        _tiny(m=1, attack=AttackSpec("scaling", scale=2.0, malicious_ids=(1, 2)))
    with pytest.raises(ValueError, match="b_coord window"):
        _tiny(m=1, attack=AttackSpec("oversized_norm", scale=200.0, malicious_ids=(1,)))


@pytest.mark.parametrize(
    "lines, message",
    [
        # each of these ended in a traceback: an OverflowError from a
        # float conversion, or a round that died on a NaN or a negative
        # scale in numpy
        ("frac_bits: 2000", "B 2^frac_bits does not fit"),
        (f"M: {2**2000}", "leaves no int64 limb"),
        ("attack: {kind: scaling, scale: .nan, malicious_ids: [1]}",
         "attack.scale must be a finite float, got nan"),
        ("attack: {kind: additive_noise, noise: .nan, malicious_ids: [1]}",
         "attack.noise must be a finite float, got nan"),
        ("attack: {kind: additive_noise, noise: -1.0, malicious_ids: [1]}",
         "attack.noise must be non-negative, got -1.0"),
        ("B: .nan", "B must be a finite float, got nan"),
        ("frac_bits: -1", "frac_bits must be at least 0"),
        # a MemoryError from the server's dlog table, of about
        # sqrt(2n) 2^((b_coord - 1)/2) entries
        ("b_coord: 60", "b_coord must be at most 32, got 60"),
        # an OverflowError from the float arithmetic on d (the later d
        # replaces the 8 above)
        (f"d: {10**400}", "d must be at most 230584300921369395"),
    ],
    ids=["frac_bits", "M", "scale_nan", "noise_nan", "noise_negative", "B_nan", "frac_bits_negative",
         "b_coord", "d"],
)
def test_cli_config_that_would_crash_a_round_is_a_usage_error(tmp_path, lines, message):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("n: 4\nm: 1\nd: 8\nk: 4\n" + lines + "\n")
    res = CliRunner().invoke(cli_main, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def test_cli_config_with_b_coord_16_runs(tmp_path):
    # the default width, written out, is well inside the ceiling of 32
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("n: 4\nm: 1\nd: 8\nk: 4\nb_coord: 16\n")
    res = CliRunner().invoke(cli_main, ["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert "aggregate ok in 1/1" in res.output


# -- command line -----------------------------------------------------------------

_TINY_YAML = "n: 4\nm: 0\nd: 8\nk: 16\nepsilon_log2: -16\nM: 16\nb_max: 64\n"


def test_option_surface_is_pinned():
    # every knob doubles the configurations to cover: adding one is a
    # deliberate edit of this test
    assert [f.name for f in dataclasses.fields(SimulationConfig)] == [
        "n", "m", "d", "k", "epsilon_log2", "M", "B", "b_ip", "b_max", "frac_bits",
        "b_coord", "seed", "rounds", "backend", "workers", "attack", "out_dir",
    ]
    assert [f.name for f in dataclasses.fields(AttackSpec)] == [
        "kind", "scale", "noise", "malicious_ids",
    ]
    options = {
        name: sorted(opt for param in cmd.params for opt in param.opts)
        for name, cmd in cli_main.commands.items()
    }
    assert options == {
        "simulate": ["--config", "--deployment-scale", "--out", "--rounds", "--seed",
                     "--transcripts"],
        "bench": ["--comm", "--d", "--k", "--sweep"],
        "params": ["--B", "--M", "--d", "--epsilon-log2", "--frac-bits", "--k"],
    }


def test_cli_simulate_writes_artifacts(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_TINY_YAML)
    out = tmp_path / "out"
    res = runner.invoke(
        cli_main,
        ["simulate", "--config", str(cfg), "--rounds", "2", "--out", str(out),
         "--transcripts"],
    )
    assert res.exit_code == 0, res.output
    names = {p.name for p in out.iterdir()}
    assert "simulation.csv" in names and "simulation.json" in names
    assert "messages.log" in names
    assert "aggregate_ok" in res.output or "ok" in res.output.lower()


def test_cli_out_flag_overrides_config_out_dir(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_TINY_YAML + f"out_dir: {tmp_path / 'from_config'}\n")
    out = tmp_path / "from_flag"
    res = CliRunner().invoke(cli_main, ["simulate", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert {p.name for p in out.iterdir()} == {"simulation.csv", "simulation.json"}
    assert not (tmp_path / "from_config").exists()


def test_cli_config_excludes_deployment_scale(tmp_path):
    # the flag would lose to the file's n and d, so the pair is refused
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(_TINY_YAML)
    res = CliRunner().invoke(cli_main, ["simulate", "--config", str(cfg), "--deployment-scale"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "--deployment-scale" in res.output


def test_cli_bench_sweep(tmp_path):
    runner = CliRunner()
    res = runner.invoke(cli_main, ["bench", "--sweep", "d=64,128", "--k", "8"])
    assert res.exit_code == 0, res.output
    lines = [ln.split() for ln in res.output.strip().splitlines()]
    assert lines[0][:2] == ["d", "k"]
    assert [ln[0] for ln in lines[1:]] == ["64", "128"]
    # d, k, the five stages and the tries of the proof of smallness (7
    # cells before the tries had a column)
    assert lines[0][-1] == "tries"
    assert all(len(ln) == 8 for ln in lines)
    assert [int(ln[-1]) for ln in lines[1:]] == [probe_costs(d, 8).tries for d in (64, 128)]


def test_cli_params_table():
    runner = CliRunner()
    res = runner.invoke(
        cli_main,
        ["params", "--k", "1000", "--epsilon-log2", "-128", "--d", "1000000", "--M", "24"],
    )
    assert res.exit_code == 0, res.output
    assert "1701.74" in res.output  # gamma
    # with the rounding term sqrt(kd)/(2M), 1.2279 and F = 1.075e-03
    assert "1.2278" in res.output  # peak expected damage
    assert "c=1.4  F=1.064e-03" in res.output
    assert "b_enc=756" in res.output


def test_cli_params_notes_a_damage_search_that_ends_at_its_cap():
    # at k = 1 c·F(c) still rises at c = 1000, so the "max" printed there
    # is the value at the cap, and the output says so
    args = ["params", "--k", "1", "--epsilon-log2", "-40", "--d", "64"]
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 0, res.output
    last, note = res.output.splitlines()[-2:]
    assert last == "max expected damage (bound): 8.8194 * B at c* = 1000.0000"
    assert note == "  (c·F(c) still rises at the search cap, so this is no maximum)"
    # the README's sample has a peak: its output ends on the sample's last
    # line, byte for byte, with no note
    command = "savi params --k 1000 --epsilon-log2 -128 --d 10000"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sample = readme.split(command + "\n", 1)[1].split("```", 1)[0]
    res = CliRunner().invoke(cli_main, command.split()[1:])
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[-1] == sample.splitlines()[-1].removeprefix("# ")


@pytest.mark.parametrize(
    "args,widths,slots",
    [
        # proof_heavy's check parameters: B0 has 64 bits (b_ip was 40, and
        # the projections' range proof had 1,280 = 5·2^8 slots)
        (["--k", "32", "--epsilon-log2", "-40", "--d", "256", "--M", "20"],
         "b_max  = 64", "mu 64 = 1·2^6"),
        # deployment: B0 has 76 bits (b_ip was 40, and the projections'
        # range proof had 40,960 = 5·2^13 slots)
        (["--k", "1000", "--epsilon-log2", "-128", "--d", "10000", "--M", "24"],
         "b_max  = 80", "mu 80 = 5·2^4"),
    ],
)
def test_cli_params_shows_range_proof_shape(args, widths, slots):
    res = CliRunner().invoke(cli_main, ["params", *args])
    assert res.exit_code == 0, res.output
    assert widths in res.output
    assert f"range slots: {slots}" in res.output
    assert "smallness: lambda = 128  T = 2^8·W = " in res.output


def test_cli_rejects_bad_sweep():
    runner = CliRunner()
    res = runner.invoke(cli_main, ["bench", "--sweep", "q=1,2"])
    assert res.exit_code != 0


@pytest.mark.parametrize(
    "args, message",
    [
        (["bench", "--sweep", "d=1x"], "'1x' is not a size"),
        (["bench", "--sweep", "d=0"], "'0': sizes must be positive"),
        (["bench", "--sweep", "d=64", "--k", "0"], "0 is not in the range"),
        (["simulate", "--rounds", "0"], "rounds must be positive"),
        # sizes that overflow a float to int conversion
        (["bench", "--sweep", "d=infk"], "'infk' is not a size"),
        (["bench", "--sweep", "d=1e400k"], "'1e400k' is not a size"),
        # 2^5000 overflows a float; M = 2^2000 overflows 8.572 M as one
        (["params", "--k", "4", "--d", "16", "--epsilon-log2", "5000"],
         "epsilon_log2 must be negative"),
        (["params", "--k", "4", "--d", "16", "--epsilon-log2", "-40", "--M", "2000"],
         "leaves no int64 limb"),
        # a size that converts, but past what any M leaves an int64 limb
        # (a ValueError traceback from the probe when it ran outside the try)
        (["bench", "--sweep", "d=1e300k"], "d must be at most 230584300921369395"),
    ],
)
def test_cli_bad_input_is_a_usage_error(args, message):
    res = CliRunner().invoke(cli_main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # click's usage exit, not a traceback
    assert message in res.output
