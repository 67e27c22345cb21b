//! Acoustic token generation, encoding and verification.
//!
//! The phone transmits the 32-bit HOTP value over the lossy acoustic
//! channel. To survive the paper's measured BER (≈8% average in the
//! field test) the token is protected by an `r`-fold repetition code
//! with per-bit majority vote; verification then requires an *exact*
//! (constant-time) match against the expected counter window.

use crate::hmac::constant_time_eq;
use crate::hotp::hotp_binary;

/// Number of payload bits in a token (31-bit HOTP value in 32 bits).
pub const TOKEN_BITS: usize = 32;

/// Default repetition factor for the acoustic channel.
pub const DEFAULT_REPETITION: usize = 5;

/// Expands a 32-bit token into its LSB-first bit representation.
pub fn token_to_bits(token: u32) -> Vec<bool> {
    (0..TOKEN_BITS).map(|i| token & (1 << i) != 0).collect()
}

/// Reassembles a token from LSB-first bits (extra bits ignored).
///
/// Returns `None` if fewer than [`TOKEN_BITS`] bits are provided.
pub fn bits_to_token(bits: &[bool]) -> Option<u32> {
    if bits.len() < TOKEN_BITS {
        return None;
    }
    let mut v = 0u32;
    for (i, &b) in bits.iter().take(TOKEN_BITS).enumerate() {
        if b {
            v |= 1 << i;
        }
    }
    Some(v)
}

/// Rotation step between repetition copies, coprime with the token
/// length: copy `c` is rotated left by `c·7` bits so each copy of a
/// given bit lands on *different* OFDM sub-channels — a static
/// frequency-selective fade then corrupts different bits in each copy
/// instead of every copy of the same bit.
const COPY_ROTATION: usize = 7;

/// Encodes bits with an `r`-fold repetition code; copy `c` is the
/// input rotated left by `c·7` positions (see `COPY_ROTATION`).
pub fn repetition_encode(bits: &[bool], r: usize) -> Vec<bool> {
    let r = r.max(1);
    let n = bits.len();
    let mut out = Vec::with_capacity(n * r);
    for c in 0..r {
        let shift = (c * COPY_ROTATION) % n.max(1);
        for i in 0..n {
            out.push(bits[(i + shift) % n]);
        }
    }
    out
}

/// Decodes an `r`-fold repetition code by per-bit majority vote,
/// undoing the per-copy rotation.
///
/// Returns `None` when `coded` is shorter than `n_bits` (not even one
/// full copy). Ties (even `r`) favour `false`.
pub fn repetition_decode(coded: &[bool], n_bits: usize, r: usize) -> Option<Vec<bool>> {
    let r = r.max(1);
    if coded.len() < n_bits {
        return None;
    }
    let copies = (coded.len() / n_bits).min(r);
    Some(
        (0..n_bits)
            .map(|i| {
                let votes = (0..copies)
                    .filter(|&c| {
                        let shift = (c * COPY_ROTATION) % n_bits;
                        // Bit i of the original sits at position
                        // (i - shift) mod n within copy c.
                        let pos = (i + n_bits - shift) % n_bits;
                        coded.get(c * n_bits + pos).copied().unwrap_or(false)
                    })
                    .count();
                votes * 2 > copies
            })
            .collect(),
    )
}

/// The outcome of a token verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Token matched the counter it was issued for; the verifier
    /// advanced its counter past it.
    Accepted {
        /// The counter value the token matched.
        counter: u64,
    },
    /// Token matched no counter in the look-ahead window.
    Rejected,
    /// Token matched an already-consumed counter — a replay.
    Replayed,
}

/// Token source on the transmitting side (the smartphone).
#[derive(Debug, Clone)]
pub struct TokenGenerator {
    key: Vec<u8>,
    counter: u64,
}

impl TokenGenerator {
    /// Creates a generator from the shared secret negotiated over the
    /// wireless control channel.
    pub fn new(key: impl Into<Vec<u8>>, counter: u64) -> Self {
        TokenGenerator {
            key: key.into(),
            counter,
        }
    }

    /// The next counter value to be used.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Issues the next token and advances the counter.
    pub fn next_token(&mut self) -> u32 {
        let t = hotp_binary(&self.key, self.counter);
        self.counter += 1;
        t
    }

    /// Issues the next token already repetition-encoded for the
    /// acoustic channel.
    pub fn next_token_bits(&mut self, repetition: usize) -> Vec<bool> {
        repetition_encode(&token_to_bits(self.next_token()), repetition)
    }
}

/// Token verifier on the receiving side.
///
/// Maintains a counter and accepts tokens within a small look-ahead
/// window (the transmitter may have burned counters on failed
/// transmissions), never re-accepting a consumed counter.
#[derive(Debug, Clone)]
pub struct TokenVerifier {
    key: Vec<u8>,
    counter: u64,
    window: u64,
}

impl TokenVerifier {
    /// Creates a verifier sharing the generator's secret and initial
    /// counter; `window` is the look-ahead (RFC 4226 resynchronization
    /// parameter `s`).
    pub fn new(key: impl Into<Vec<u8>>, counter: u64, window: u64) -> Self {
        TokenVerifier {
            key: key.into(),
            counter,
            window: window.max(1),
        }
    }

    /// The next counter value this verifier expects.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Verifies a received token value.
    pub fn verify(&mut self, token: u32) -> VerifyOutcome {
        let received = token.to_be_bytes();
        // Replay check against the previous window of consumed counters.
        let replay_back = self.counter.saturating_sub(self.window);
        for c in replay_back..self.counter {
            let expect = hotp_binary(&self.key, c).to_be_bytes();
            if constant_time_eq(&expect, &received) {
                return VerifyOutcome::Replayed;
            }
        }
        for c in self.counter..self.counter + self.window {
            let expect = hotp_binary(&self.key, c).to_be_bytes();
            if constant_time_eq(&expect, &received) {
                self.counter = c + 1;
                return VerifyOutcome::Accepted { counter: c };
            }
        }
        VerifyOutcome::Rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TokenGenerator, TokenVerifier) {
        (
            TokenGenerator::new(&b"shared-secret"[..], 10),
            TokenVerifier::new(&b"shared-secret"[..], 10, 3),
        )
    }

    #[test]
    fn bits_roundtrip() {
        for v in [0u32, 1, 0x7fff_ffff, 0x1234_5678] {
            assert_eq!(bits_to_token(&token_to_bits(v)), Some(v));
        }
        assert_eq!(bits_to_token(&[true; 10]), None);
    }

    #[test]
    fn generator_verifier_happy_path() {
        let (mut g, mut v) = pair();
        let t = g.next_token();
        assert_eq!(v.verify(t), VerifyOutcome::Accepted { counter: 10 });
        let t2 = g.next_token();
        assert_eq!(v.verify(t2), VerifyOutcome::Accepted { counter: 11 });
    }

    #[test]
    fn replay_is_detected() {
        let (mut g, mut v) = pair();
        let t = g.next_token();
        assert!(matches!(v.verify(t), VerifyOutcome::Accepted { .. }));
        assert_eq!(v.verify(t), VerifyOutcome::Replayed);
    }

    #[test]
    fn window_resynchronizes_after_lost_tokens() {
        let (mut g, mut v) = pair();
        // Two tokens lost in the air.
        let _ = g.next_token();
        let _ = g.next_token();
        let t3 = g.next_token();
        assert_eq!(v.verify(t3), VerifyOutcome::Accepted { counter: 12 });
        // Counter advanced past the skipped ones: old tokens rejected
        // or flagged as replays, never accepted.
        let (mut g2, _) = pair();
        let t1 = g2.next_token();
        assert_ne!(
            v.verify(t1),
            VerifyOutcome::Accepted { counter: 10 },
            "stale token must not unlock"
        );
    }

    #[test]
    fn beyond_window_is_rejected() {
        let (mut g, mut v) = pair();
        for _ in 0..5 {
            let _ = g.next_token(); // burn 5 > window 3
        }
        let t = g.next_token();
        assert_eq!(v.verify(t), VerifyOutcome::Rejected);
    }

    #[test]
    fn wrong_key_never_verifies() {
        let mut g = TokenGenerator::new(&b"other-secret"[..], 10);
        let (_, mut v) = pair();
        for _ in 0..3 {
            assert_eq!(v.verify(g.next_token()), VerifyOutcome::Rejected);
        }
    }

    #[test]
    fn repetition_code_fixes_scattered_errors() {
        let bits = token_to_bits(0xdead_beef & 0x7fff_ffff);
        let mut coded = repetition_encode(&bits, 5);
        // Flip 12 scattered bits (7.5% of 160).
        for i in (0..coded.len()).step_by(13) {
            coded[i] = !coded[i];
        }
        let decoded = repetition_decode(&coded, TOKEN_BITS, 5).unwrap();
        assert_eq!(decoded, bits);
    }

    #[test]
    fn repetition_decode_handles_short_input() {
        assert_eq!(repetition_decode(&[true; 10], 32, 5), None);
        // Exactly one copy works (degenerate majority).
        let bits = token_to_bits(0x0f0f_0f0f);
        assert_eq!(repetition_decode(&bits, TOKEN_BITS, 5).unwrap(), bits);
    }

    #[test]
    fn corrupted_beyond_majority_rejected() {
        let (mut g, mut v) = pair();
        let mut coded = g.next_token_bits(5);
        // Destroy all copies of logical bit 0 (accounting for the
        // per-copy rotation).
        for c in 0..5 {
            let shift = (c * 7) % TOKEN_BITS;
            let pos = (TOKEN_BITS - shift) % TOKEN_BITS;
            coded[c * TOKEN_BITS + pos] = !coded[c * TOKEN_BITS + pos];
        }
        let token = repetition_decode(&coded, TOKEN_BITS, 5)
            .as_deref()
            .and_then(bits_to_token)
            .expect("full-length input decodes");
        assert_eq!(v.verify(token), VerifyOutcome::Rejected);
    }
}
