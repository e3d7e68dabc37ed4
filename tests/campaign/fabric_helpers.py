"""What the fabric tests that drive a coordinator by hand share."""

from repro.campaign.spec import payload_identity_hash
from repro.campaign.store import record_checksum


def sealed(payload, record) -> dict:
    """The ``integrity`` sidecar an honest worker attaches to ``record``,
    computed for the leased ``payload``."""
    return {
        "record_sha256": record_checksum(record),
        "cell_hash": payload_identity_hash(payload),
    }
