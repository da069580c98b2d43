"""Secure aggregation with verified inputs.

Clients commit to model updates under Pedersen vector commitments,
share their blinds verifiably, and prove in zero knowledge that a
random-projection statistic of the update stays under an L2-derived
bound; the server aggregates exactly the updates that check out.
"""
