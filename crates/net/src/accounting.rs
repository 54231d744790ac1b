//! Communication-cost accounting.
//!
//! Distributed localization quality is only half the story — the other half
//! is how much radio traffic the algorithm needs, since radio dominates WSN
//! energy budgets. This module provides:
//!
//! - [`WireMessage`], the on-air payloads a distributed implementation would
//!   send, with a compact hand-rolled big-endian encoding so byte counts
//!   are honest rather than guessed;
//! - [`CommStats`], the message and byte totals a run reports;
//! - [`EnergyModel`], which converts those totals into radio energy.

use wsnloc_geom::Vec2;

/// Big-endian cursor over an encoded [`WireMessage`]; each getter consumes
/// its bytes or reports exhaustion via `None`.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data }
    }

    fn remaining(&self) -> usize {
        self.data.len()
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, tail) = self.data.split_at_checked(N)?;
        self.data = tail;
        head.try_into().ok()
    }

    fn get_u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|b| b[0])
    }

    fn get_u16(&mut self) -> Option<u16> {
        self.take::<2>().map(u16::from_be_bytes)
    }

    fn get_u32(&mut self) -> Option<u32> {
        self.take::<4>().map(u32::from_be_bytes)
    }

    fn get_f64(&mut self) -> Option<f64> {
        self.take::<8>().map(f64::from_be_bytes)
    }

    fn get_vec2(&mut self) -> Option<Vec2> {
        Some(Vec2::new(self.get_f64()?, self.get_f64()?))
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Payloads exchanged by distributed localization algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// An anchor announcing its position (flooded with a hop counter by
    /// DV-Hop-style algorithms).
    AnchorAnnounce {
        /// Announcing anchor id.
        anchor: u32,
        /// Anchor coordinates.
        position: Vec2,
        /// Hops traveled so far.
        hops: u16,
    },
    /// A per-anchor average hop distance broadcast (DV-Hop phase 2).
    HopSizeAnnounce {
        /// Announcing anchor id.
        anchor: u32,
        /// Meters per hop estimate.
        meters_per_hop: f64,
    },
    /// A particle-based belief summary sent to a neighbor: `count` particles
    /// of 2 coordinates plus a weight each.
    ParticleBelief {
        /// Sender id.
        from: u32,
        /// Number of particles encoded.
        count: u32,
        /// Flattened `(x, y, w)` triples.
        payload: Vec<(Vec2, f64)>,
    },
    /// A compact parametric belief (mean + covariance upper triangle) —
    /// what a bandwidth-limited deployment would send instead of particles.
    GaussianBelief {
        /// Sender id.
        from: u32,
        /// Belief mean.
        mean: Vec2,
        /// Covariance entries (xx, xy, yy).
        cov: [f64; 3],
    },
}

impl WireMessage {
    /// Serializes to the compact wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        match self {
            WireMessage::AnchorAnnounce {
                anchor,
                position,
                hops,
            } => {
                buf.push(0);
                put_u32(&mut buf, *anchor);
                put_f64(&mut buf, position.x);
                put_f64(&mut buf, position.y);
                put_u16(&mut buf, *hops);
            }
            WireMessage::HopSizeAnnounce {
                anchor,
                meters_per_hop,
            } => {
                buf.push(1);
                put_u32(&mut buf, *anchor);
                put_f64(&mut buf, *meters_per_hop);
            }
            WireMessage::ParticleBelief {
                from,
                count,
                payload,
            } => {
                buf.push(2);
                put_u32(&mut buf, *from);
                put_u32(&mut buf, *count);
                for (p, w) in payload {
                    put_f64(&mut buf, p.x);
                    put_f64(&mut buf, p.y);
                    put_f64(&mut buf, *w);
                }
            }
            WireMessage::GaussianBelief { from, mean, cov } => {
                buf.push(3);
                put_u32(&mut buf, *from);
                put_f64(&mut buf, mean.x);
                put_f64(&mut buf, mean.y);
                for c in cov {
                    put_f64(&mut buf, *c);
                }
            }
        }
        buf
    }

    /// Size of the encoded form in bytes, without encoding.
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMessage::AnchorAnnounce { .. } => 1 + 4 + 16 + 2,
            WireMessage::HopSizeAnnounce { .. } => 1 + 4 + 8,
            WireMessage::ParticleBelief { payload, .. } => 1 + 4 + 4 + payload.len() * 24,
            WireMessage::GaussianBelief { .. } => 1 + 4 + 16 + 24,
        }
    }

    /// Decodes a message previously produced by [`WireMessage::encode`].
    /// Returns `None` on malformed input.
    pub fn decode(data: &[u8]) -> Option<WireMessage> {
        let mut data = Reader::new(data);
        match data.get_u8()? {
            0 => Some(WireMessage::AnchorAnnounce {
                anchor: data.get_u32()?,
                position: data.get_vec2()?,
                hops: data.get_u16()?,
            }),
            1 => Some(WireMessage::HopSizeAnnounce {
                anchor: data.get_u32()?,
                meters_per_hop: data.get_f64()?,
            }),
            2 => {
                let from = data.get_u32()?;
                let count = data.get_u32()?;
                if data.remaining() < count as usize * 24 {
                    return None;
                }
                let mut payload = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    payload.push((data.get_vec2()?, data.get_f64()?));
                }
                Some(WireMessage::ParticleBelief {
                    from,
                    count,
                    payload,
                })
            }
            3 => Some(WireMessage::GaussianBelief {
                from: data.get_u32()?,
                mean: data.get_vec2()?,
                cov: [data.get_f64()?, data.get_f64()?, data.get_f64()?],
            }),
            _ => None,
        }
    }
}

/// Aggregate communication statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total bytes sent.
    pub bytes: u64,
}

impl CommStats {
    /// Mean messages per node for a network of `n` nodes.
    pub fn messages_per_node(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.messages as f64 / n as f64
        }
    }
}

/// First-order radio energy model (Heinzelman-style): a fixed electronics
/// cost per bit on both ends plus a transmit-amplifier term that grows with
/// range squared. Lets experiments convert [`CommStats`] into energy —
/// the currency WSN papers ultimately argue in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Electronics energy per bit, nJ (typ. 50).
    pub elec_nj_per_bit: f64,
    /// Amplifier energy per bit per m², pJ (typ. 100).
    pub amp_pj_per_bit_m2: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            elec_nj_per_bit: 50.0,
            amp_pj_per_bit_m2: 100.0,
        }
    }
}

impl EnergyModel {
    /// Energy to transmit `bytes` over `distance` meters, millijoules.
    pub fn tx_mj(&self, bytes: u64, distance: f64) -> f64 {
        let bits = bytes as f64 * 8.0;
        (bits * self.elec_nj_per_bit * 1e-9
            + bits * self.amp_pj_per_bit_m2 * 1e-12 * distance * distance)
            * 1e3
    }

    /// Energy to receive `bytes`, millijoules.
    pub fn rx_mj(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.elec_nj_per_bit * 1e-9 * 1e3
    }

    /// Total network energy for an algorithm run, millijoules: every sent
    /// byte is transmitted once at `radio_range` and received by
    /// `avg_neighbors` listeners (broadcast medium).
    pub fn total_mj(&self, comm: &CommStats, radio_range: f64, avg_neighbors: f64) -> f64 {
        self.tx_mj(comm.bytes, radio_range) + self.rx_mj(comm.bytes) * avg_neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_anchor_announce() {
        let msg = WireMessage::AnchorAnnounce {
            anchor: 7,
            position: Vec2::new(12.5, -3.25),
            hops: 4,
        };
        let enc = msg.encode();
        assert_eq!(enc.len(), msg.encoded_len());
        assert_eq!(WireMessage::decode(&enc), Some(msg));
    }

    #[test]
    fn roundtrip_hop_size() {
        let msg = WireMessage::HopSizeAnnounce {
            anchor: 3,
            meters_per_hop: 87.5,
        };
        assert_eq!(WireMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn roundtrip_particle_belief() {
        let msg = WireMessage::ParticleBelief {
            from: 11,
            count: 3,
            payload: vec![
                (Vec2::new(1.0, 2.0), 0.5),
                (Vec2::new(-3.0, 4.0), 0.25),
                (Vec2::new(0.0, 0.0), 0.25),
            ],
        };
        let enc = msg.encode();
        assert_eq!(enc.len(), msg.encoded_len());
        assert_eq!(WireMessage::decode(&enc), Some(msg));
    }

    #[test]
    fn roundtrip_gaussian_belief() {
        let msg = WireMessage::GaussianBelief {
            from: 2,
            mean: Vec2::new(5.0, 6.0),
            cov: [2.0, 0.1, 3.0],
        };
        assert_eq!(WireMessage::decode(&msg.encode()), Some(msg));
    }

    #[test]
    fn decode_rejects_truncated_input() {
        let msg = WireMessage::ParticleBelief {
            from: 1,
            count: 2,
            payload: vec![(Vec2::ZERO, 0.5), (Vec2::ZERO, 0.5)],
        };
        let enc = msg.encode();
        assert_eq!(WireMessage::decode(&enc[..enc.len() - 5]), None);
        assert_eq!(WireMessage::decode(&[]), None);
        assert_eq!(WireMessage::decode(&[9, 0, 0]), None);
    }

    #[test]
    fn particle_belief_bytes_scale_with_count() {
        let small = WireMessage::ParticleBelief {
            from: 0,
            count: 10,
            payload: vec![(Vec2::ZERO, 0.1); 10],
        };
        let big = WireMessage::ParticleBelief {
            from: 0,
            count: 100,
            payload: vec![(Vec2::ZERO, 0.01); 100],
        };
        assert_eq!(big.encoded_len() - small.encoded_len(), 90 * 24);
    }

    #[test]
    fn energy_model_scales_with_bytes_and_distance() {
        let m = EnergyModel::default();
        // Electronics dominate at short range; amp dominates far out.
        assert!(m.tx_mj(100, 10.0) < m.tx_mj(100, 1000.0));
        assert!((m.tx_mj(200, 50.0) / m.tx_mj(100, 50.0) - 2.0).abs() < 1e-9);
        // 1000 bytes at 150 m: 8000 bits · (50 nJ + 100 pJ · 22500).
        let expected = 8000.0 * (50e-9 + 100e-12 * 150.0 * 150.0) * 1e3;
        assert!((m.tx_mj(1000, 150.0) - expected).abs() < 1e-9);
        assert!((m.rx_mj(1000) - 8000.0 * 50e-9 * 1e3).abs() < 1e-12);
    }

    #[test]
    fn total_energy_charges_listeners() {
        let m = EnergyModel::default();
        let comm = CommStats {
            messages: 10,
            bytes: 1000,
        };
        let lonely = m.total_mj(&comm, 150.0, 0.0);
        let crowded = m.total_mj(&comm, 150.0, 14.0);
        assert!(crowded > lonely);
        assert!((crowded - lonely - 14.0 * m.rx_mj(1000)).abs() < 1e-9);
    }

    #[test]
    fn messages_per_node_averages_over_the_network() {
        let comm = CommStats {
            messages: 3,
            bytes: 160,
        };
        assert!((comm.messages_per_node(3) - 1.0).abs() < 1e-12);
        assert_eq!(comm.messages_per_node(0), 0.0);
    }
}
