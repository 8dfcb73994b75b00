//! Clean twin for A8–A9: the same shapes written correctly — total
//! parsing under an invocation root, length-checked decode with a typed
//! error, and an allocation-free hot loop. The analyzer must stay silent on
//! every function here with no suppressions.

pub struct Platform {
    warm: u64,
}

impl Platform {
    /// Invocation root whose whole call tree is panic-free.
    pub fn invoke(&self, payload: &[u8]) -> u64 {
        parse_checked(payload).unwrap_or(0) + self.warm
    }
}

/// Total: a missing header byte becomes `None`, never a panic.
fn parse_checked(payload: &[u8]) -> Option<u64> {
    payload.first().copied().map(u64::from)
}

pub struct Frame {
    pub len: u32,
}

impl Frame {
    /// Length-checked decode with a typed error and no raw indexing.
    pub fn decode(buf: &mut &[u8]) -> Result<Frame, &'static str> {
        if buf.len() < 4 {
            return Err("short frame");
        }
        let (head, rest) = buf.split_at(4);
        let mut raw = [0u8; 4];
        raw.copy_from_slice(head);
        *buf = rest;
        Ok(Frame {
            len: u32::from_le_bytes(raw),
        })
    }
}

pub struct GradAccumulator {
    buf: Vec<f32>,
}

impl GradAccumulator {
    /// Hot root: accumulates in place, no fresh allocation anywhere.
    pub fn accumulate(&mut self, grads: &[f32]) {
        for (b, g) in self.buf.iter_mut().zip(grads.iter()) {
            *b += scale_one(*g);
        }
    }
}

/// Pure scalar math on the hot path.
fn scale_one(g: f32) -> f32 {
    g * 0.5
}
