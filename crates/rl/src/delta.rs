//! Delta-encoded policy pulls (DESIGN.md §16): a learner at policy version
//! `v` downloads only the parameter blocks that changed since `v` instead of
//! the whole flat snapshot.
//!
//! The parameter plane is partitioned into *blocks* — one block per parameter
//! tensor ([`BlockLayout`], the same ordering `ParamSet::params` uses) — and
//! every block carries the version of the commit that last wrote it. A pull
//! at version `v` then ships exactly the blocks with `block_version > v`; a
//! learner that is already current receives an empty delta a few bytes long.
//! When `v` is from an unknown lineage ahead of the producer's clock, the
//! delta degrades to a **full refresh** that carries every block, so
//! [`apply_to_snapshot`] always converges to the producer's state. The one
//! producer is the parameter server (`ShardedParameterServer::delta_since`
//! in `stellaris-core`), which stamps blocks at commit time; this module is
//! the format and the receiver half.
//!
//! ABS (arXiv 2301.08895) shows convergence survives communicating less per
//! sync under bounded staleness; Adaptive Policy Synchronization
//! (arXiv 2507.10990) decouples re-sync from the round clock. This module is
//! the wire-format half of both: [`PolicyDelta`] is a [`Codec`] value, so it
//! rides the existing frame transport (`op::POLICY_DELTA`).

use bytes::BytesMut;
use stellaris_cache::{decode_seq, encode_seq, seq_encoded_len, Codec, CodecError};

use crate::policy::PolicySnapshot;

/// How a flat parameter vector splits into blocks: one block per parameter
/// tensor, in `ParamSet::params` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLayout {
    /// Element count of each block.
    sizes: Vec<usize>,
    /// Element offset of each block within the flat vector.
    offsets: Vec<usize>,
    /// Total element count (sum of `sizes`).
    total: usize,
}

impl BlockLayout {
    /// Builds the layout from parameter-tensor shapes
    /// (`ParamSet::param_shapes`).
    pub fn from_shapes(shapes: &[Vec<usize>]) -> Self {
        let sizes: Vec<usize> = shapes.iter().map(|s| s.iter().product::<usize>()).collect();
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for &sz in &sizes {
            offsets.push(total);
            total += sz;
        }
        Self {
            sizes,
            offsets,
            total,
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Element count of block `i`.
    pub fn size(&self, i: usize) -> usize {
        self.sizes[i]
    }

    /// Element offset of block `i` within the flat vector.
    pub fn offset(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Total element count across all blocks.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// One changed block inside a [`PolicyDelta`].
#[derive(Clone, Debug, PartialEq)]
pub struct BlockUpdate {
    /// Block index within the [`BlockLayout`].
    pub index: u32,
    /// The block's full new contents.
    pub data: Vec<f32>,
}

impl Codec for BlockUpdate {
    fn encode(&self, buf: &mut BytesMut) {
        self.index.encode(buf);
        self.data.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            index: u32::decode(buf)?,
            data: Vec::<f32>::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.index.encoded_len() + self.data.encoded_len()
    }
}

/// A versioned policy update: everything a learner at version `from` needs
/// to reach version `to`.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyDelta {
    /// The version this delta applies on top of. Ignored when `full`.
    pub from: u64,
    /// The version the receiver is at after applying.
    pub to: u64,
    /// Full refresh: `blocks` carries *every* block and replaces the
    /// receiver's state regardless of its current version.
    pub full: bool,
    /// Changed blocks, ascending by index.
    pub blocks: Vec<BlockUpdate>,
}

impl PolicyDelta {
    /// True when there is nothing to apply (receiver already current).
    pub fn is_empty(&self) -> bool {
        !self.full && self.blocks.is_empty()
    }
}

impl Codec for PolicyDelta {
    fn encode(&self, buf: &mut BytesMut) {
        self.from.encode(buf);
        self.to.encode(buf);
        self.full.encode(buf);
        encode_seq(&self.blocks, buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            from: u64::decode(buf)?,
            to: u64::decode(buf)?,
            full: bool::decode(buf)?,
            blocks: decode_seq(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.from.encoded_len()
            + self.to.encoded_len()
            + self.full.encoded_len()
            + seq_encoded_len(&self.blocks)
    }
}

/// Applying a delta failed; the receiver's state is untouched (validation
/// happens before any write).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was built against a different base version than the
    /// receiver holds; the receiver should fall back to a full pull.
    BaseMismatch {
        /// Version the delta applies on top of.
        expected: u64,
        /// Version the receiver actually holds.
        got: u64,
    },
    /// A block index is outside the layout.
    BlockIndex(u32),
    /// A block's element count disagrees with the layout.
    BlockSize {
        /// Offending block.
        index: u32,
        /// Element count the layout requires.
        expected: usize,
        /// Element count the delta carried.
        got: usize,
    },
    /// A full refresh did not carry every block exactly once.
    IncompleteFull,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, got } => {
                write!(f, "delta base v{expected} does not match receiver v{got}")
            }
            DeltaError::BlockIndex(i) => write!(f, "block index {i} outside layout"),
            DeltaError::BlockSize {
                index,
                expected,
                got,
            } => write!(f, "block {index}: expected {expected} elements, got {got}"),
            DeltaError::IncompleteFull => {
                write!(f, "full refresh must carry every block exactly once")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// Validates a delta against a layout and a receiver version without
/// touching any state: every error [`apply_to_snapshot`] can raise is raised
/// here first.
fn validate(delta: &PolicyDelta, layout: &BlockLayout, at: u64) -> Result<(), DeltaError> {
    if !delta.full && delta.from != at {
        return Err(DeltaError::BaseMismatch {
            expected: delta.from,
            got: at,
        });
    }
    let mut seen = vec![false; layout.n_blocks()];
    for b in &delta.blocks {
        let i = b.index as usize;
        if i >= layout.n_blocks() {
            return Err(DeltaError::BlockIndex(b.index));
        }
        if b.data.len() != layout.size(i) {
            return Err(DeltaError::BlockSize {
                index: b.index,
                expected: layout.size(i),
                got: b.data.len(),
            });
        }
        if seen[i] {
            // A duplicate in a full refresh means some other block is
            // missing; in a partial delta it is a sender bug either way.
            return Err(DeltaError::IncompleteFull);
        }
        seen[i] = true;
    }
    if delta.full && !seen.iter().all(|&s| s) {
        return Err(DeltaError::IncompleteFull);
    }
    Ok(())
}

/// Applies a delta to a flat snapshot in place: the receiver half of a
/// delta pull for holders of a plain [`PolicySnapshot`] (remote workers).
/// On error the snapshot is untouched.
pub fn apply_to_snapshot(
    delta: &PolicyDelta,
    snap: &mut PolicySnapshot,
    layout: &BlockLayout,
) -> Result<(), DeltaError> {
    validate(delta, layout, snap.version)?;
    for b in &delta.blocks {
        let off = layout.offset(b.index as usize);
        snap.flat[off..off + b.data.len()].copy_from_slice(&b.data);
    }
    snap.version = delta.to;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout3() -> BlockLayout {
        BlockLayout::from_shapes(&[vec![2, 3], vec![4], vec![1]])
    }

    fn snap(version: u64, layout: &BlockLayout, fill: f32) -> PolicySnapshot {
        PolicySnapshot {
            version,
            flat: (0..layout.total()).map(|i| fill + i as f32).collect(),
        }
    }

    #[test]
    fn layout_partitions_the_flat_vector() {
        let l = layout3();
        assert_eq!(l.n_blocks(), 3);
        assert_eq!(l.total(), 11);
        assert_eq!((l.offset(0), l.size(0)), (0, 6));
        assert_eq!((l.offset(1), l.size(1)), (6, 4));
        assert_eq!((l.offset(2), l.size(2)), (10, 1));
    }

    #[test]
    fn base_mismatch_is_a_typed_error_and_leaves_state_untouched() {
        let l = layout3();
        let d = PolicyDelta {
            from: 7,
            to: 8,
            full: false,
            blocks: vec![BlockUpdate {
                index: 0,
                data: vec![0.0; 6],
            }],
        };
        let mut learner = snap(3, &l, 1.0);
        let before = learner.clone();
        assert_eq!(
            apply_to_snapshot(&d, &mut learner, &l),
            Err(DeltaError::BaseMismatch {
                expected: 7,
                got: 3
            })
        );
        assert_eq!(learner, before);
    }

    #[test]
    fn bad_block_index_and_size_rejected_before_any_write() {
        let l = layout3();
        let mut learner = snap(0, &l, 0.0);
        let before = learner.clone();
        let bad_index = PolicyDelta {
            from: 0,
            to: 1,
            full: false,
            blocks: vec![BlockUpdate {
                index: 9,
                data: vec![],
            }],
        };
        assert_eq!(
            apply_to_snapshot(&bad_index, &mut learner, &l),
            Err(DeltaError::BlockIndex(9))
        );
        let bad_size = PolicyDelta {
            from: 0,
            to: 1,
            full: false,
            blocks: vec![
                BlockUpdate {
                    index: 0,
                    data: vec![1.0; 6],
                },
                BlockUpdate {
                    index: 1,
                    data: vec![2.0; 3],
                },
            ],
        };
        assert_eq!(
            apply_to_snapshot(&bad_size, &mut learner, &l),
            Err(DeltaError::BlockSize {
                index: 1,
                expected: 4,
                got: 3
            })
        );
        assert_eq!(learner, before, "failed applies must not write");
    }

    #[test]
    fn full_refresh_applies_over_any_receiver_version() {
        let l = layout3();
        let target = snap(11, &l, 0.0);
        let d = PolicyDelta {
            from: 99,
            to: 11,
            full: true,
            blocks: (0..l.n_blocks())
                .map(|i| BlockUpdate {
                    index: i as u32,
                    data: target.flat[l.offset(i)..l.offset(i) + l.size(i)].to_vec(),
                })
                .collect(),
        };
        let mut learner = snap(3, &l, 42.0);
        apply_to_snapshot(&d, &mut learner, &l).unwrap();
        assert_eq!(learner, target);
    }

    #[test]
    fn incomplete_full_refresh_rejected() {
        let l = layout3();
        let mut learner = snap(0, &l, 0.0);
        let d = PolicyDelta {
            from: 0,
            to: 1,
            full: true,
            blocks: vec![BlockUpdate {
                index: 0,
                data: vec![0.0; 6],
            }],
        };
        assert_eq!(
            apply_to_snapshot(&d, &mut learner, &l),
            Err(DeltaError::IncompleteFull)
        );
    }

    proptest! {
        /// Wire roundtrip for arbitrary well-formed deltas.
        #[test]
        fn prop_delta_codec_roundtrip(
            from in 0u64..100,
            to in 0u64..100,
            full in any::<bool>(),
            n_blocks in 0usize..6,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let d = PolicyDelta {
                from,
                to,
                full,
                blocks: (0..n_blocks)
                    .map(|_| BlockUpdate {
                        index: rng.gen_range(0..16u32),
                        data: (0..rng.gen_range(0..12usize))
                            .map(|_| rng.gen_range(-1e6f32..1e6))
                            .collect(),
                    })
                    .collect(),
            };
            let bytes = d.to_bytes();
            prop_assert_eq!(bytes.len(), d.encoded_len());
            prop_assert_eq!(PolicyDelta::from_bytes(&bytes).unwrap(), d);
        }

        /// Byte soup must decode to a typed error or a value — never panic —
        /// and truncating a valid encoding at any boundary must error.
        #[test]
        fn prop_delta_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = PolicyDelta::from_bytes(&data);
        }

        #[test]
        fn prop_truncated_delta_errors_not_panics(
            n_blocks in 1usize..4,
            size in 1usize..5,
        ) {
            let d = PolicyDelta {
                from: 1,
                to: 2,
                full: false,
                blocks: (0..n_blocks)
                    .map(|i| BlockUpdate {
                        index: i as u32,
                        data: vec![1.5; size],
                    })
                    .collect(),
            };
            let bytes = d.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(PolicyDelta::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}
