//! A compact binary codec for the payloads that flow through the cache.
//!
//! The original system serialises trajectories, gradients and policy weights
//! with Python's pickle (§VII). Here every cached payload implements
//! [`Codec`], a small hand-rolled format (little-endian, length-prefixed)
//! in which encoding a gradient message is a couple of `memcpy`s: every
//! numeric slice (`Vec<f32>`, tensor data, `Vec<u64>`, `Vec<usize>`) is
//! converted in one pass, through a 4 KiB stack block on encode
//! ([`put_le_words`]) and straight from the checked prefix into the
//! destination `Vec` on decode ([`take_le_words`]). The wire bytes are the
//! ones element-at-a-time encoding writes. The cache is on the training hot
//! path and the paper's Fig. 14 budgets its overhead below 5 % of a round.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use stellaris_nn::Tensor;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    Truncated,
    /// A tag or length field held an invalid value.
    Corrupt(&'static str),
    /// A value's element count exceeds what the `u32` length prefix can
    /// carry; encoding it would silently wrap and produce a frame whose
    /// prefix disagrees with its payload.
    TooLarge(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::Corrupt(what) => write!(f, "corrupt field: {what}"),
            CodecError::TooLarge(len) => {
                write!(f, "length {len} exceeds the u32 length-prefix range")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary-serialisable value.
pub trait Codec: Sized {
    /// Appends the encoded value to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;
    /// Exact number of bytes [`Codec::encode`] will append. Lets
    /// [`Codec::to_bytes`] reserve the whole buffer up front instead of
    /// growing `BytesMut` geometrically while a multi-megabyte gradient
    /// message streams in.
    fn encoded_len(&self) -> usize;

    /// Encodes into a fresh buffer, sized exactly with
    /// [`Codec::encoded_len`] so encoding never reallocates.
    fn to_bytes(&self) -> Bytes {
        let len = self.encoded_len();
        let mut buf = BytesMut::with_capacity(len);
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), len, "encoded_len out of sync with encode");
        buf.freeze()
    }

    /// Decodes from a complete buffer, requiring full consumption.
    fn from_bytes(mut b: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut b)?;
        if !b.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(v)
    }
}

fn need(buf: &&[u8], n: usize) -> Result<(), CodecError> {
    if buf.len() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

/// Checked conversion of an element count to the wire's `u32` length
/// prefix. The unchecked `len as u32` this replaces silently wrapped for
/// payloads above `u32::MAX` elements, encoding a frame whose prefix
/// disagrees with its payload — the receiver would then mis-parse
/// in-bounds garbage instead of rejecting the frame.
pub fn checked_len_u32(len: usize) -> Result<u32, CodecError> {
    u32::try_from(len).map_err(|_| CodecError::TooLarge(len))
}

/// Encodes a length prefix (or any other `u32` count field, such as a
/// tensor dimension), panicking on overflow.
///
/// # Panics
///
/// Panics if `len > u32::MAX`. [`Codec::encode`] is infallible by design
/// (the hot path never constructs payloads anywhere near 2^32 elements), so
/// overflow here is a caller bug; a loud panic is strictly better than the
/// silent wrap it replaces. Wire-facing paths reject oversized values with
/// a typed error *before* encoding (see `frame::write_value_frame`), which
/// keeps this panic unreachable from a socket.
pub fn encode_len_prefix(len: usize, buf: &mut BytesMut) {
    match checked_len_u32(len) {
        Ok(n) => n.encode(buf),
        #[expect(
            clippy::panic,
            reason = "documented panic — a >u32::MAX-element payload is a caller bug"
        )]
        Err(e) => panic!("{e}"),
    }
}

/// Bytes [`put_le_words`] converts on the stack per append.
const BLOCK_BYTES: usize = 4096;

/// Appends `items` as consecutive `N`-byte little-endian words, with no
/// length prefix: each 4 KiB block is converted on the stack and appended
/// with one `extend_from_slice`. The bytes are those of one `put_*_le` per
/// element.
pub fn put_le_words<T: Copy, const N: usize>(
    buf: &mut BytesMut,
    items: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    buf.reserve(items.len() * N);
    let mut block = [0u8; BLOCK_BYTES];
    let (block, _) = block.as_chunks_mut::<N>();
    for chunk in items.chunks(block.len()) {
        let words = &mut block[..chunk.len()];
        for (word, &v) in words.iter_mut().zip(chunk) {
            *word = to_le(v);
        }
        buf.extend_from_slice(words.as_flattened());
    }
}

/// Takes the next `len` `N`-byte words off `buf` for one pass of
/// `from_le_bytes`, or [`CodecError::Truncated`] when fewer bytes remain.
pub fn take_le_words<'a, const N: usize>(
    buf: &mut &'a [u8],
    len: usize,
) -> Result<&'a [[u8; N]], CodecError> {
    let bytes = len
        .checked_mul(N)
        .ok_or(CodecError::Corrupt("length overflow"))?;
    let (words, rest) = buf.split_at_checked(bytes).ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(words.as_chunks().0)
}

macro_rules! impl_codec_num {
    ($ty:ty, $put:ident, $get:ident, $size:expr) => {
        impl Codec for $ty {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                need(buf, $size)?;
                Ok(buf.$get())
            }
            fn encoded_len(&self) -> usize {
                $size
            }
        }
    };
}

impl_codec_num!(u8, put_u8, get_u8, 1);
impl_codec_num!(u32, put_u32_le, get_u32_le, 4);
impl_codec_num!(u64, put_u64_le, get_u64_le, 8);
impl_codec_num!(i64, put_i64_le, get_i64_le, 8);
impl_codec_num!(f32, put_f32_le, get_f32_le, 4);
impl_codec_num!(f64, put_f64_le, get_f64_le, 8);

impl Codec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for usize {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        need(buf, 8)?;
        let v = buf.get_u64_le();
        usize::try_from(v).map_err(|_| CodecError::Corrupt("usize overflow"))
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for String {
    fn encode(&self, buf: &mut BytesMut) {
        encode_len_prefix(self.len(), buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        need(buf, len)?;
        // lint:allow(A8): `need(buf, len)` on the previous line proves `buf.len() >= len`
        let s = std::str::from_utf8(&buf[..len])
            .map_err(|_| CodecError::Corrupt("utf8"))?
            .to_owned();
        buf.advance(len);
        Ok(s)
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Codec for Vec<f32> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_len_prefix(self.len(), buf);
        put_le_words(buf, self, f32::to_le_bytes);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let words = take_le_words(buf, len)?;
        Ok(words.iter().map(|&w| f32::from_le_bytes(w)).collect())
    }
    fn encoded_len(&self) -> usize {
        4 + self.len() * 4
    }
}

impl Codec for Vec<u64> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_len_prefix(self.len(), buf);
        put_le_words(buf, self, u64::to_le_bytes);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let words = take_le_words(buf, len)?;
        Ok(words.iter().map(|&w| u64::from_le_bytes(w)).collect())
    }
    fn encoded_len(&self) -> usize {
        4 + self.len() * 8
    }
}

impl Codec for Vec<usize> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_len_prefix(self.len(), buf);
        put_le_words(buf, self, |v| (v as u64).to_le_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let words = take_le_words(buf, len)?;
        words
            .iter()
            .map(|&w| {
                usize::try_from(u64::from_le_bytes(w))
                    .map_err(|_| CodecError::Corrupt("usize overflow"))
            })
            .collect()
    }
    fn encoded_len(&self) -> usize {
        4 + self.len() * 8
    }
}

impl Codec for Tensor {
    fn encode(&self, buf: &mut BytesMut) {
        encode_len_prefix(self.shape().len(), buf);
        for &d in self.shape() {
            encode_len_prefix(d, buf);
        }
        put_le_words(buf, self.data(), f32::to_le_bytes);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let rank = u32::decode(buf)? as usize;
        if rank > 8 {
            return Err(CodecError::Corrupt("tensor rank"));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(u32::decode(buf)? as usize);
        }
        // Checked product: a hostile shape like [2^32, 2^32] wraps a plain
        // `iter().product()` in release builds, and the wrapped (small)
        // numel would pass the length check while `from_vec` later panics
        // on the shape/data mismatch.
        let mut numel = 1usize;
        for &d in &shape {
            numel = numel
                .checked_mul(d)
                .ok_or(CodecError::Corrupt("tensor numel overflow"))?;
        }
        let words = take_le_words(buf, numel)?;
        let data = words.iter().map(|&w| f32::from_le_bytes(w)).collect();
        Ok(Tensor::from_vec(data, &shape))
    }
    fn encoded_len(&self) -> usize {
        4 + self.shape().len() * 4 + self.numel() * 4
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Corrupt("option tag")),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
}

/// Encodes a slice of any `Codec` values with a length prefix.
pub fn encode_seq<T: Codec>(items: &[T], buf: &mut BytesMut) {
    encode_len_prefix(items.len(), buf);
    for item in items {
        item.encode(buf);
    }
}

/// Exact encoded size of a length-prefixed sequence, for composite
/// [`Codec::encoded_len`] implementations built on [`encode_seq`].
pub fn seq_encoded_len<T: Codec>(items: &[T]) -> usize {
    4 + items.iter().map(Codec::encoded_len).sum::<usize>()
}

/// Decodes a length-prefixed sequence.
pub fn decode_seq<T: Codec>(buf: &mut &[u8]) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(buf)? as usize;
    if len > 1 << 28 {
        return Err(CodecError::Corrupt("sequence length"));
    }
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        out.push(T::decode(buf)?);
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::let_underscore_must_use)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = BytesMut::new();
        42u32.encode(&mut buf);
        7u64.encode(&mut buf);
        (-3i64).encode(&mut buf);
        1.5f32.encode(&mut buf);
        true.encode(&mut buf);
        "hello".to_string().encode(&mut buf);
        let mut b: &[u8] = &buf;
        assert_eq!(u32::decode(&mut b).unwrap(), 42);
        assert_eq!(u64::decode(&mut b).unwrap(), 7);
        assert_eq!(i64::decode(&mut b).unwrap(), -3);
        assert_eq!(f32::decode(&mut b).unwrap(), 1.5);
        assert!(bool::decode(&mut b).unwrap());
        assert_eq!(String::decode(&mut b).unwrap(), "hello");
        assert!(b.is_empty());
    }

    #[test]
    fn tensor_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.0, 9.0, 6.0], &[2, 3]);
        let back = Tensor::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn truncated_tensor_errors() {
        let t = Tensor::ones(&[4, 4]);
        let bytes = t.to_bytes();
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(Tensor::from_bytes(cut), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        5u32.encode(&mut buf);
        buf.put_u8(0xff);
        assert_eq!(
            u32::from_bytes(&buf),
            Err(CodecError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u64> = Some(99);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u64>::from_bytes(&none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![
            Tensor::ones(&[2]),
            Tensor::zeros(&[3, 1]),
            Tensor::full(&[1], 7.0),
        ];
        let mut buf = BytesMut::new();
        encode_seq(&items, &mut buf);
        let mut b: &[u8] = &buf;
        let back: Vec<Tensor> = decode_seq(&mut b).unwrap();
        assert_eq!(back, items);
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        assert_eq!(42u32.encoded_len(), 42u32.to_bytes().len());
        assert_eq!(7u64.encoded_len(), 7u64.to_bytes().len());
        assert_eq!((-3i64).encoded_len(), (-3i64).to_bytes().len());
        assert_eq!(1.5f32.encoded_len(), 1.5f32.to_bytes().len());
        assert_eq!(true.encoded_len(), true.to_bytes().len());
        assert_eq!(9usize.encoded_len(), 9usize.to_bytes().len());
        let s = "hello".to_string();
        assert_eq!(s.encoded_len(), s.to_bytes().len());
        let vf = vec![1.0f32, 2.0, 3.0];
        assert_eq!(vf.encoded_len(), vf.to_bytes().len());
        let vu = vec![1u64, 2, 3];
        assert_eq!(vu.encoded_len(), vu.to_bytes().len());
        let vz = vec![4usize, 5];
        assert_eq!(vz.encoded_len(), vz.to_bytes().len());
        let t = Tensor::ones(&[3, 4]);
        assert_eq!(t.encoded_len(), t.to_bytes().len());
        let some: Option<Tensor> = Some(Tensor::zeros(&[2]));
        let none: Option<Tensor> = None;
        assert_eq!(some.encoded_len(), some.to_bytes().len());
        assert_eq!(none.encoded_len(), none.to_bytes().len());
    }

    #[test]
    fn seq_encoded_len_matches_encode_seq() {
        let items = vec![Tensor::ones(&[2, 2]), Tensor::zeros(&[5])];
        let mut buf = BytesMut::new();
        encode_seq(&items, &mut buf);
        assert_eq!(seq_encoded_len(&items), buf.len());
        let empty: Vec<Tensor> = vec![];
        let mut buf = BytesMut::new();
        encode_seq(&empty, &mut buf);
        assert_eq!(seq_encoded_len(&empty), buf.len());
    }

    #[test]
    fn checked_len_u32_rejects_overflow() {
        // Regression for the silent `len as u32` wrap: counts above
        // u32::MAX must surface as TooLarge, not encode a corrupt prefix.
        assert_eq!(checked_len_u32(0), Ok(0));
        assert_eq!(checked_len_u32(u32::MAX as usize), Ok(u32::MAX));
        let over = u32::MAX as usize + 1;
        assert_eq!(checked_len_u32(over), Err(CodecError::TooLarge(over)));
        let msg = CodecError::TooLarge(over).to_string();
        assert!(msg.contains("4294967296"), "{msg}");
    }

    #[test]
    fn hostile_tensor_shape_rejected_without_allocation() {
        // A shape whose element product wraps usize must be rejected by the
        // checked numel product, not slip past `need()` with a small wrapped
        // value. [2^32, 2^32] wraps to 0 under 64-bit wrapping_mul chains
        // once more dims are added; use dims that wrap to a tiny number.
        let mut buf = BytesMut::new();
        2u32.encode(&mut buf); // rank 2
        buf.put_u32_le(u32::MAX); // dim 0
        buf.put_u32_le(u32::MAX); // dim 1
        let err = Tensor::from_bytes(&buf).unwrap_err();
        assert!(
            matches!(err, CodecError::Corrupt(_) | CodecError::Truncated),
            "hostile shape must fail typed, got {err:?}"
        );

        // And a rank prefix beyond the cap is rejected before any shape read.
        let mut buf = BytesMut::new();
        u32::MAX.encode(&mut buf);
        assert_eq!(
            Tensor::from_bytes(&buf),
            Err(CodecError::Corrupt("tensor rank"))
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the u32 length-prefix range")]
    fn oversized_tensor_dimension_panics_instead_of_wrapping() {
        // Zero elements, so nothing is allocated: a wrapping `d as u32`
        // would round-trip this as shape [0, 0].
        let _ = Tensor::zeros(&[1 << 32, 0]).to_bytes();
    }

    /// The per-element encoding the bulk slice codec replaced, kept as the
    /// oracle its bytes and decodes are held to.
    mod oracle {
        use super::*;

        pub fn encode_f32s(v: &[f32], buf: &mut BytesMut) {
            for &x in v {
                buf.put_f32_le(x);
            }
        }

        pub fn vec_f32(v: &[f32]) -> Vec<u8> {
            let mut buf = BytesMut::new();
            buf.put_u32_le(v.len() as u32);
            encode_f32s(v, &mut buf);
            buf.to_vec()
        }

        pub fn vec_u64(v: &[u64]) -> Vec<u8> {
            let mut buf = BytesMut::new();
            buf.put_u32_le(v.len() as u32);
            for &x in v {
                buf.put_u64_le(x);
            }
            buf.to_vec()
        }

        pub fn tensor(t: &Tensor) -> Vec<u8> {
            let mut buf = BytesMut::new();
            buf.put_u32_le(t.shape().len() as u32);
            for &d in t.shape() {
                buf.put_u32_le(d as u32);
            }
            encode_f32s(t.data(), &mut buf);
            buf.to_vec()
        }

        pub fn decode_f32s(buf: &mut &[u8], len: usize) -> Result<Vec<f32>, CodecError> {
            need(buf, len * 4)?;
            Ok((0..len).map(|_| buf.get_f32_le()).collect())
        }

        pub fn decode_vec_f32(mut buf: &[u8]) -> Result<Vec<f32>, CodecError> {
            let len = u32::decode(&mut buf)? as usize;
            decode_f32s(&mut buf, len)
        }

        pub fn decode_vec_u64(mut buf: &[u8]) -> Result<Vec<u64>, CodecError> {
            let len = u32::decode(&mut buf)? as usize;
            need(&buf, len * 8)?;
            Ok((0..len).map(|_| buf.get_u64_le()).collect())
        }
    }

    /// `len` floats drawn from a seeded stream: every sixth one a special
    /// value (NaN payloads of both signs and kinds, ±0, subnormals, ±inf),
    /// the rest arbitrary bit patterns.
    fn floats(len: usize, seed: u64) -> Vec<f32> {
        use rand::{RngCore, SeedableRng};
        const SPECIAL: [u32; 10] = [
            0x7fc0_0000, // quiet NaN
            0x7f80_0001, // signalling NaN, low payload
            0xffbf_ffff, // negative signalling NaN, full payload
            0xffc0_1234, // negative quiet NaN with payload
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let draw = rng.next_u32();
                let bits = match SPECIAL.get(draw as usize % 60) {
                    Some(&special) => special,
                    None => rng.next_u32(),
                };
                f32::from_bits(bits)
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn bulk_decode_errors_typed_at_every_cut_across_a_block_boundary() {
        // 1025 elements: one full 1024-float block plus one.
        let v = floats(1025, 7);
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Vec::<f32>::from_bytes(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
        let t = Tensor::from_vec(v, &[5, 205]);
        let bytes = t.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Tensor::from_bytes(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
        let words: Vec<u64> = (0..1025u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bytes = words.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                Vec::<u64>::from_bytes(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert_eq!(
            Vec::<u64>::from_bytes(&long),
            Err(CodecError::Corrupt("trailing bytes"))
        );
    }

    proptest! {
        #[test]
        fn prop_bulk_codec_matches_per_element_oracle(
            len in 0usize..2101,
            seed in any::<u64>(),
            rows in 1usize..8,
        ) {
            let v = floats(len, seed);
            let bytes = v.to_bytes();
            prop_assert_eq!(&bytes[..], &oracle::vec_f32(&v)[..]);
            prop_assert_eq!(bits(&Vec::<f32>::from_bytes(&bytes).unwrap()), bits(&v));
            prop_assert_eq!(bits(&oracle::decode_vec_f32(&bytes).unwrap()), bits(&v));

            let words: Vec<u64> = v
                .iter()
                .map(|x| u64::from(x.to_bits()).wrapping_mul(seed | 1))
                .collect();
            let bytes = words.to_bytes();
            prop_assert_eq!(&bytes[..], &oracle::vec_u64(&words)[..]);
            prop_assert_eq!(Vec::<u64>::from_bytes(&bytes).unwrap(), words.clone());
            prop_assert_eq!(oracle::decode_vec_u64(&bytes).unwrap(), words);

            let cols = len / rows;
            let t = Tensor::from_vec(v[..rows * cols].to_vec(), &[rows, cols]);
            let bytes = t.to_bytes();
            prop_assert_eq!(&bytes[..], &oracle::tensor(&t)[..]);
            let back = Tensor::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.shape(), t.shape());
            prop_assert_eq!(bits(back.data()), bits(t.data()));
            let mut body: &[u8] = &bytes[4 + 8..];
            prop_assert_eq!(
                bits(&oracle::decode_f32s(&mut body, rows * cols).unwrap()),
                bits(t.data())
            );
            prop_assert!(body.is_empty());
        }

        #[test]
        fn prop_vec_f32_roundtrip(v in proptest::collection::vec(-1e6f32..1e6, 0..200)) {
            let bytes = v.to_bytes();
            let back = Vec::<f32>::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back, v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            let owned = s.to_string();
            let back = String::from_bytes(&owned.to_bytes()).unwrap();
            prop_assert_eq!(back, owned);
        }

        #[test]
        fn prop_tensor_roundtrip(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..1000,
        ) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let t = Tensor::randn(&[rows, cols], 1.0, &mut rng);
            prop_assert_eq!(Tensor::from_bytes(&t.to_bytes()).unwrap(), t);
        }

        #[test]
        fn prop_decode_random_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Any outcome is fine as long as decoding doesn't panic.
            let _ = Tensor::from_bytes(&data);
            let _ = String::from_bytes(&data);
            let _ = Vec::<f32>::from_bytes(&data);
        }

        #[test]
        fn prop_truncated_valid_frames_error_not_panic(
            rows in 1usize..5,
            cols in 1usize..5,
            text in ".{0,24}",
        ) {
            // A valid encoding cut at *every* byte boundary must decode to a
            // typed error (almost always Truncated), never panic, and never
            // succeed except on the full buffer.
            let t = Tensor::ones(&[rows, cols]);
            let bytes = t.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(Tensor::from_bytes(&bytes[..cut]).is_err());
            }
            let s = text.to_string();
            let bytes = s.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(String::from_bytes(&bytes[..cut]).is_err());
            }
            let v: Vec<f32> = vec![1.0; rows * cols];
            let bytes = v.to_bytes();
            for cut in 0..bytes.len() {
                prop_assert!(Vec::<f32>::from_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}
