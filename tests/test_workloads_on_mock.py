"""Each benchmark workload, one round on the mock group: the oracle
passes and the uplink matches the bytes the benchmark reports for
ristretto255 (message sizes do not depend on the backend), so a change
of bytes or a wrong aggregate shows here before a perfbench run."""

from dataclasses import replace

import pytest

from savi.harness import Simulation
from savi.zkp import integrity
from test_perfbench import _load

# With M derived from its rounding slack by the bound rho(k) (2^10 on all
# three); derived by the worst case sqrt(kd) (2^13, 2^14, 2^11) these were
# 18,284, 133,980 and 6,272, and at M = 2^20 18,572, 134,092 and 6,688.  The slack proof's b_max = 56
# ends on 7-scalar vectors, so two workloads grow although their slots fall.
# Bulletproofs+ range proofs are 96 bytes shorter each, two per client;
# with Bulletproofs these were 18,828, 134,348 and 6,560.  The proof of
# smallness (Y, 128 packed answers, y_sigma and t_link) replaced the
# projections' range proof: with it these were 18,636, 134,156 and 6,368.
# One commitment o' to the sum of squares and none to the projections
# (savi/v8) made each proof 128k - 80 bytes shorter: with commitments o
# and o'_t (savi/v7) these were 18,044, 133,724 and 6,256.
UPLINK = {"proof_heavy": 14_028, "wide_update": 133_292, "crowd_attack": 5_312}


@pytest.mark.parametrize("name", sorted(UPLINK))
def test_workload_round_on_mock(name):
    workloads = _load("workloads")
    cfg = replace(workloads.make_config(workloads.SHAPES[name], 1), backend="mock")
    report = Simulation(cfg).run_round(1)
    assert workloads.oracle_failures(cfg, 1, report) == []
    assert max(report.bytes_sent.values()) == UPLINK[name]


# round 1's mock (muls, additions) in the two server stages after the
# proofs.  e_star is checked once, for the accepted set only, so proof_ver
# runs one ver_crt of d + k + 1 muls on every workload; on crowd_attack,
# whose forgers were named "wellformed", checking the well-shaped set first
# and the accepted set again cost two, and proof_ver (1,479, 2,295).
# Checked per client, proof_ver cost 3,915, 12,757 and 2,567 muls.  The
# batch's shared bases are the slack proof's 2 b_max range generators and
# the 128 G_j of the links; with the projections' range proof in the batch,
# proof_ver cost 3,337, 4,555 and 1,837 muls.  With b_max = 56 (M = 2^13
# and 2^14), proof_ver cost 1,641 and 4,529 muls on proof_heavy and
# wide_update.  With commitments o and o'_t (savi/v7) the sigma proofs
# cost 11k + 5 muls a client, 3k - 2 more than 8k + 7 now, and proof_ver
# (1,631, 2,005), (4,519, 12,685) and (1,406, 1,786).  crowd_attack's
# forgers are now named "square", so each pays both sigma checks, 8k + 7
# muls where the "wellformed" check cost 5k + 5
VERIFY_OPS = {
    "proof_heavy": {"proof_ver": (1_349, 1_723), "aggregate": (261, 706)},
    "wide_update": {"proof_ver": (4_489, 12_655), "aggregate": (4_101, 4_546)},
    "crowd_attack": {"proof_ver": (1_286, 1_639), "aggregate": (97, 1_009)},
}


@pytest.mark.parametrize("name", sorted(VERIFY_OPS))
def test_workload_verification_muls_pinned(name, monkeypatch):
    workloads = _load("workloads")
    cfg = replace(workloads.make_config(workloads.SHAPES[name], 1), backend="mock")
    checks = []
    ver_crt = integrity.ver_crt
    monkeypatch.setattr(integrity, "ver_crt", lambda *args: checks.append(1) or ver_crt(*args))
    report = Simulation(cfg).run_round(1)
    ops = report.group_ops
    assert {stage: (ops[stage]["mul"], ops[stage]["add"]) for stage in VERIFY_OPS[name]} == (
        VERIFY_OPS[name]
    )
    assert len(checks) == 1  # the server's consistency check; clients import their own
