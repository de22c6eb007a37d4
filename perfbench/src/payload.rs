//! Self-validating payloads.
//!
//! Every value the benchmark publishes carries its own proof of
//! integrity, so each read can be checked without a side channel:
//!
//! ```text
//! [0..8)        seq   (publication stamp, little endian)
//! [8..16)       key   (identity of the register it was written to)
//! [16..len-8)   body  (seeded filler, never inspected by readers)
//! [len-8..len)  seq   (the same stamp again)
//! ```
//!
//! A read is faulty when the two stamps disagree (torn), when the stamp
//! is older than one this reader already saw on the same register
//! (backwards), or when the identity names another register
//! (misrouted). The initial value of a plane is `(UNSET, 0)`: it is
//! valid for any register, because a plane is built with one initial
//! value for all of them.

/// Smallest value that holds both stamps and the identity.
pub const MIN_LEN: usize = 24;

/// Identity carried by the initial value.
pub const UNSET: u64 = u64::MAX;

/// Why a read was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The end stamps disagree, or the value is too short to hold them.
    Torn,
    /// The stamp is older than the last one this reader saw.
    Backwards,
    /// The identity names another register.
    Misrouted,
}

/// Failure counts of one run, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fails {
    pub torn: u64,
    pub backwards: u64,
    pub misrouted: u64,
    pub empty_wakes: u64,
    pub timeouts: u64,
}

impl Fails {
    pub fn record(&mut self, fault: Fault) {
        match fault {
            Fault::Torn => self.torn += 1,
            Fault::Backwards => self.backwards += 1,
            Fault::Misrouted => self.misrouted += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.torn + self.backwards + self.misrouted + self.empty_wakes + self.timeouts
    }

    pub fn merge(&mut self, o: &Fails) {
        self.torn += o.torn;
        self.backwards += o.backwards;
        self.misrouted += o.misrouted;
        self.empty_wakes += o.empty_wakes;
        self.timeouts += o.timeouts;
    }
}

/// SplitMix64 step: the benchmark's one seeded generator for bytes.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `len`-byte value with a seeded body and the stamps `(key, seq)`.
pub fn make(len: usize, key: u64, seq: u64, seed: u64) -> Vec<u8> {
    assert!(len >= MIN_LEN, "a payload needs {MIN_LEN} bytes for its stamps");
    let mut state = seed;
    let mut buf: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
    buf[8..16].copy_from_slice(&key.to_le_bytes());
    stamp(&mut buf, seq);
    buf
}

/// Overwrite both sequence stamps (the only per-write change to a
/// pre-generated value).
#[inline]
pub fn stamp(buf: &mut [u8], seq: u64) {
    let n = buf.len();
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[n - 8..].copy_from_slice(&seq.to_le_bytes());
}

/// Overwrite the identity stamp.
#[inline]
pub fn set_key(buf: &mut [u8], key: u64) {
    buf[8..16].copy_from_slice(&key.to_le_bytes());
}

#[inline]
fn word(value: &[u8], at: usize) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(&value[at..at + 8]);
    u64::from_le_bytes(w)
}

/// Check a value read from register `key` by a reader whose last
/// observed stamp on that register is `last`; returns the value's stamp.
#[inline]
pub fn check(value: &[u8], key: u64, last: u64) -> Result<u64, Fault> {
    let n = value.len();
    if n < MIN_LEN {
        return Err(Fault::Torn);
    }
    let seq = word(value, 0);
    if seq != word(value, n - 8) {
        return Err(Fault::Torn);
    }
    let id = word(value, 8);
    if id != key && !(id == UNSET && seq == 0) {
        return Err(Fault::Misrouted);
    }
    if seq < last {
        return Err(Fault::Backwards);
    }
    Ok(seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_value_and_returns_its_stamp() {
        let v = make(64, 7, 42, 1);
        assert_eq!(check(&v, 7, 0), Ok(42));
        assert_eq!(check(&v, 7, 42), Ok(42), "re-reading the same value is not backwards");
    }

    #[test]
    fn accepts_the_initial_value_on_any_register() {
        let v = make(48, UNSET, 0, 9);
        assert_eq!(check(&v, 0, 0), Ok(0));
        assert_eq!(check(&v, 123_456, 0), Ok(0));
    }

    #[test]
    fn rejects_disagreeing_end_stamps_as_torn() {
        let mut v = make(4096, 0, 5, 3);
        v[4095] ^= 1;
        assert_eq!(check(&v, 0, 0), Err(Fault::Torn));
        let mut v = make(48, 3, 5, 3);
        v[0] = 6;
        assert_eq!(check(&v, 3, 0), Err(Fault::Torn));
    }

    #[test]
    fn rejects_a_value_too_short_for_its_stamps_as_torn() {
        assert_eq!(check(&[0u8; 16], 0, 0), Err(Fault::Torn));
        assert_eq!(check(&[], 0, 0), Err(Fault::Torn));
    }

    #[test]
    fn rejects_an_older_stamp_as_backwards() {
        let v = make(64, 1, 9, 4);
        assert_eq!(check(&v, 1, 10), Err(Fault::Backwards));
        let init = make(64, UNSET, 0, 4);
        assert_eq!(check(&init, 1, 1), Err(Fault::Backwards), "initial value after a write");
    }

    #[test]
    fn rejects_another_registers_value_as_misrouted() {
        let v = make(48, 11, 2, 5);
        assert_eq!(check(&v, 12, 0), Err(Fault::Misrouted));
        // The unset identity is only valid on the initial stamp.
        let forged = make(48, UNSET, 3, 5);
        assert_eq!(check(&forged, 12, 0), Err(Fault::Misrouted));
    }

    #[test]
    fn restamping_keeps_the_body_and_moves_both_stamps() {
        let mut v = make(64, 2, 1, 6);
        let body = v[16..56].to_vec();
        stamp(&mut v, 77);
        assert_eq!(check(&v, 2, 1), Ok(77));
        assert_eq!(&v[16..56], &body[..]);
        set_key(&mut v, 3);
        assert_eq!(check(&v, 3, 0), Ok(77));
    }

    #[test]
    fn the_same_seed_makes_the_same_value() {
        assert_eq!(make(128, 1, 1, 99), make(128, 1, 1, 99));
        assert_ne!(make(128, 1, 1, 99), make(128, 1, 1, 100));
    }

    #[test]
    fn fails_count_every_kind() {
        let mut f = Fails::default();
        f.record(Fault::Torn);
        f.record(Fault::Backwards);
        f.record(Fault::Misrouted);
        f.empty_wakes += 1;
        f.timeouts += 2;
        assert_eq!(f.total(), 6);
        let mut g = Fails::default();
        g.merge(&f);
        assert_eq!(g.total(), 6);
    }
}
