"""A block encodes each record once; its root and hash keep their definitions.

``Block.create`` hands the same canonical record bytes to the Merkle
leaves and to the block hash, whose payload is joined from them rather
than encoded as a whole.  These tests hold it to the value-level
definitions: the Merkle root of the record values, and the chain hash
of ``{"header": ..., "records": ...}``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chain import Block, canonical_bytes, merkle_root
from repro.chain.hashing import GENESIS_HASH, block_payload, chain_hash

TRICKY_TEXT = st.sampled_from([
    "", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\r\t", "\u2028\u2029",
    "\U0001f600", "caf\u00e9", "\ud83d", "</script>",
])
TEXT = TRICKY_TEXT | st.text(max_size=8) | st.text(
    alphabet=st.sampled_from('"\\\x00\x1f\u2028\U0001f600\u00e9a '), max_size=8
)
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([
    -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1,
])
INTS = st.integers() | st.sampled_from([2**53 + 1, -(2**53) - 1, 2**64 + 7, 10**30])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)
RECORDS = st.lists(st.dictionaries(TEXT, VALUES, max_size=5), max_size=8)
HASHES = st.just(GENESIS_HASH) | st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)


@settings(max_examples=300, deadline=None)
@example(height=0, previous_hash=GENESIS_HASH, aggregator="", timestamp=0.0, records=[])
@example(height=1, previous_hash=GENESIS_HASH, aggregator="a", timestamp=-0.0, records=[{}, {}])
@given(
    height=st.integers(min_value=0, max_value=2**40),
    previous_hash=HASHES,
    aggregator=TEXT,
    timestamp=FLOATS,
    records=RECORDS,
)
def test_create_matches_value_level_definitions(
    height, previous_hash, aggregator, timestamp, records
):
    block = Block.create(
        height=height,
        previous_hash=previous_hash,
        aggregator=aggregator,
        timestamp=timestamp,
        records=records,
    )
    whole = {"header": block.header.to_dict(), "records": records}
    assert block_payload(
        block.header.to_dict(), [canonical_bytes(r) for r in records]
    ) == canonical_bytes(whole)
    assert block.header.merkle_root == merkle_root(records)
    assert block.block_hash == chain_hash(previous_hash, whole)
    assert block.compute_hash() == block.block_hash
    block.validate_structure()


PINNED_RECORDS = [
    {"device": "d1", "device_uid": "u1", "sequence": 1, "energy_mwh": 0.0138,
     "buffered": False},
    {"device": "d2", "sequence": 2**53 + 1,
     "note": "caf\u00e9 \"q\" \\ \u2028 \U0001f600",
     "nested": {"b": [1, -0.0, None], "a": 5e-324}},
    {},
]


def test_pinned_block_hash():
    # Captured before records were encoded once per block: the joined
    # payload must not move a single committed hash.
    block = Block.create(
        height=3, previous_hash="ab" * 32, aggregator="agg-pin", timestamp=12.5,
        records=PINNED_RECORDS,
    )
    assert block.header.merkle_root == (
        "aa04b77571c5c928f24eb61a1050fe470d3ce1e4ebe03b36dd87c9e3342ba326"
    )
    assert block.block_hash == (
        "038625efca7007bf58cf262d666b7afa6d5315eff608cc6697049e363601a228"
    )
