//! FNV-1a digests of the outputs the oracles pin, computed here rather than
//! by the code under test.

use wsan_core::Schedule;
use wsan_net::plants::Plant;

/// Streaming 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a plant: node positions and every link's per-channel PRR in
/// both directions, in the plant's `(a, b)` order.
pub fn plant(plant: &Plant) -> u64 {
    let mut h = Fnv::new();
    h.eat(plant.node_count() as u64);
    for node in plant.nodes() {
        let p = plant.position(node);
        h.eat(p.x.to_bits());
        h.eat(p.y.to_bits());
        h.eat(p.z.to_bits());
    }
    h.eat(plant.links().len() as u64);
    for link in plant.links() {
        h.eat(link.a.index() as u64);
        h.eat(link.b.index() as u64);
        for (ab, ba) in link.prr_ab.iter().zip(&link.prr_ba) {
            h.eat(u64::from(ab.to_bits()) << 32 | u64::from(ba.to_bits()));
        }
    }
    h.finish()
}

/// Digest of a schedule: dimensions and every entry in placement order.
pub fn schedule(schedule: &Schedule) -> u64 {
    let mut h = Fnv::new();
    h.eat(u64::from(schedule.horizon()));
    h.eat(schedule.channel_count() as u64);
    h.eat(schedule.node_count() as u64);
    for e in schedule.entries() {
        h.eat(u64::from(e.slot));
        h.eat(e.offset as u64);
        h.eat(e.tx.flow.index() as u64);
        h.eat(u64::from(e.tx.job_index));
        h.eat(e.tx.link.tx.index() as u64);
        h.eat(e.tx.link.rx.index() as u64);
        h.eat(u64::from(e.tx.seq));
        h.eat(u64::from(e.tx.attempt));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of the eight bytes 0x00..: computed independently.
        let mut h = Fnv::new();
        h.eat(0);
        assert_eq!(h.finish(), 0xa8c7_f832_281a_39c5);
    }
}
