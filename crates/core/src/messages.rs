//! The gradient messages learner functions hand to the parameter function
//! to aggregate (workflow Steps ② and ③), and their wire encoding for
//! worker sockets.

use bytes::BytesMut;
use stellaris_cache::{decode_seq, encode_seq, seq_encoded_len, Codec, CodecError};
use stellaris_nn::Tensor;

/// A gradient computed by one learner-function invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct GradientMsg {
    /// Which learner produced it.
    pub learner_id: usize,
    /// Per-parameter gradient tensors (same order as `ParamSet::params`).
    pub grads: Vec<Tensor>,
    /// Policy clock this gradient was computed against — staleness at
    /// aggregation is `param_clock - base_version`.
    pub base_version: u64,
    /// Mini-batch size `b` (Theorem 1's convergence constant).
    pub batch_len: usize,
    /// The learner's importance-ratio statistic published to the Eq. 2
    /// board (mean raw |ratio| of its latest mini-batch).
    pub is_ratio: f32,
    /// Mean KL(behaviour ‖ new) observed.
    pub kl: f32,
    /// Surrogate objective value (diagnostics).
    pub surrogate: f32,
}

impl GradientMsg {
    /// Staleness of this gradient at parameter clock `clock`.
    pub fn staleness(&self, clock: u64) -> u64 {
        clock.saturating_sub(self.base_version)
    }
}

impl Codec for GradientMsg {
    fn encode(&self, buf: &mut BytesMut) {
        self.learner_id.encode(buf);
        encode_seq(&self.grads, buf);
        self.base_version.encode(buf);
        self.batch_len.encode(buf);
        self.is_ratio.encode(buf);
        self.kl.encode(buf);
        self.surrogate.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Self {
            learner_id: usize::decode(buf)?,
            grads: decode_seq(buf)?,
            base_version: u64::decode(buf)?,
            batch_len: usize::decode(buf)?,
            is_ratio: f32::decode(buf)?,
            kl: f32::decode(buf)?,
            surrogate: f32::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.learner_id.encoded_len()
            + seq_encoded_len(&self.grads)
            + self.base_version.encoded_len()
            + self.batch_len.encoded_len()
            + self.is_ratio.encoded_len()
            + self.kl.encoded_len()
            + self.surrogate.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> GradientMsg {
        GradientMsg {
            learner_id: 3,
            grads: vec![Tensor::ones(&[2, 2]), Tensor::zeros(&[4])],
            base_version: 17,
            batch_len: 128,
            is_ratio: 0.85,
            kl: 0.004,
            surrogate: 0.12,
        }
    }

    #[test]
    fn codec_roundtrip() {
        let m = msg();
        assert_eq!(GradientMsg::from_bytes(&m.to_bytes()).unwrap(), m);
    }

    #[test]
    fn encoded_len_is_exact() {
        let m = msg();
        assert_eq!(m.encoded_len(), m.to_bytes().len());
    }

    #[test]
    fn staleness_saturates() {
        let m = msg();
        assert_eq!(m.staleness(20), 3);
        assert_eq!(m.staleness(17), 0);
        assert_eq!(m.staleness(10), 0, "clock behind base saturates to 0");
    }

    #[test]
    fn corrupt_bytes_rejected() {
        let bytes = msg().to_bytes();
        assert!(GradientMsg::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }
}
