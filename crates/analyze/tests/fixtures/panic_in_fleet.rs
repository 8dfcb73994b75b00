//! Seeded A8: a panic site reachable from the socket venue's round loop,
//! `RemoteFleet::run`, which drives the same dispatcher as `train`. The
//! analyzer must report it with a witness chain naming that root.

pub struct RemoteFleet {
    slots: Vec<usize>,
}

impl RemoteFleet {
    /// Round-loop root: everything this reaches must be panic-free.
    pub fn run(&self) -> usize {
        deal(&self.slots)
    }
}

/// Reached from `run`: the unwrap on an empty fleet is the seeded hazard.
fn deal(slots: &[usize]) -> usize {
    slots.iter().copied().max().unwrap()
}
