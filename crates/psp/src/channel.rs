//! The private-matrix sharing channel (Fig. 5's "Private Matrix Sharing
//! Channel").
//!
//! The paper assumes "the key distribution and management process is
//! secure using standard crypto method" and cites Diffie–Hellman (the
//! paper's reference 32).
//! This module provides exactly that shape — a DH key agreement followed
//! by symmetric stream encryption — at *simulation grade*: the group is a
//! 61-bit Mersenne prime, fine for demonstrating the protocol flow and
//! utterly inadequate against a real adversary. Swap in an audited
//! library before any production use.

use crate::{PspError, Result};
use puppies_core::keys::MatrixKind;
use puppies_core::{KeyGrant, MatrixId, PrivateMatrix};
use puppies_obs::fnv64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;

/// The Mersenne prime 2⁶¹ − 1.
const P: u128 = (1u128 << 61) - 1;
/// A generator of a large subgroup mod `P`.
const G: u128 = 3;

fn mod_pow(mut base: u128, mut exp: u128, modulus: u128) -> u128 {
    let mut acc: u128 = 1;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    acc
}

/// One party's ephemeral key pair for Diffie–Hellman agreement.
#[derive(Debug)]
pub struct KeyAgreement {
    secret: u128,
    public: u128,
}

impl KeyAgreement {
    /// Draws an ephemeral key pair.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> KeyAgreement {
        let secret = rng.gen_range(2u64..(1 << 60)) as u128;
        KeyAgreement {
            secret,
            public: mod_pow(G, secret, P),
        }
    }

    /// The public value to send to the peer.
    pub fn public_value(&self) -> u128 {
        self.public
    }

    /// Completes the agreement with the peer's public value, producing a
    /// symmetric channel.
    pub fn agree(&self, peer_public: u128) -> SecureChannel {
        let shared = mod_pow(peer_public, self.secret, P);
        SecureChannel::from_shared_secret(shared)
    }
}

/// A symmetric stream-cipher channel derived from a DH shared secret.
#[derive(Debug, Clone)]
pub struct SecureChannel {
    key: [u8; 32],
}

impl SecureChannel {
    fn from_shared_secret(shared: u128) -> SecureChannel {
        // Expand the 61-bit secret into a 256-bit key (SplitMix-style).
        let mut key = [0u8; 32];
        let mut z = shared as u64 ^ 0x9E37_79B9_7F4A_7C15;
        for chunk in key.chunks_mut(8) {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        SecureChannel { key }
    }

    /// Encrypts a payload (ChaCha keystream XOR, with an FNV-1a 64
    /// checksum for tamper/mismatch detection).
    pub fn encrypt(&self, plain: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plain.len() + 8);
        out.extend_from_slice(&fnv64(plain).to_le_bytes());
        out.extend_from_slice(plain);
        let mut rng = ChaCha20Rng::from_seed(self.key);
        for b in &mut out {
            *b ^= rng.gen::<u8>();
        }
        out
    }

    /// Decrypts a payload.
    ///
    /// # Errors
    /// Fails if the checksum does not match (wrong key or corruption).
    pub fn decrypt(&self, cipher: &[u8]) -> Result<Vec<u8>> {
        if cipher.len() < 8 {
            return Err(PspError::Channel("ciphertext too short".into()));
        }
        let mut buf = cipher.to_vec();
        let mut rng = ChaCha20Rng::from_seed(self.key);
        for b in &mut buf {
            *b ^= rng.gen::<u8>();
        }
        let want = u64::from_le_bytes(buf[..8].try_into().expect("length checked"));
        let plain = buf[8..].to_vec();
        if fnv64(&plain) != want {
            return Err(PspError::Channel("checksum mismatch".into()));
        }
        Ok(plain)
    }
}

/// Serializes a grant's explicit matrices (11-bit entries packed as u16
/// for simplicity).
pub fn encode_grant(grant: &KeyGrant) -> Vec<u8> {
    let entries = grant.to_entries();
    let mut out = Vec::with_capacity(4 + entries.len() * (16 + 128));
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (id, m) in entries {
        out.extend_from_slice(&id.image.to_le_bytes());
        out.extend_from_slice(&id.roi.to_le_bytes());
        out.push(match id.kind {
            MatrixKind::Dc => 0,
            MatrixKind::Ac => 1,
        });
        out.push(id.component);
        for &e in m.entries() {
            out.extend_from_slice(&(e as u16).to_le_bytes());
        }
    }
    out
}

/// Parses [`encode_grant`]'s output.
///
/// # Errors
/// Fails on truncation or invalid fields.
pub fn decode_grant(data: &[u8]) -> Result<KeyGrant> {
    let fail = |m: &str| PspError::Channel(m.into());
    if data.len() < 4 {
        return Err(fail("grant payload too short"));
    }
    let n = u32::from_le_bytes(data[..4].try_into().expect("length checked")) as usize;
    let mut pos = 4;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        if pos + 12 + 128 > data.len() {
            return Err(fail("grant payload truncated"));
        }
        let image = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("len"));
        let roi = u16::from_le_bytes(data[pos + 8..pos + 10].try_into().expect("len"));
        let kind = match data[pos + 10] {
            0 => MatrixKind::Dc,
            1 => MatrixKind::Ac,
            other => return Err(fail(&format!("bad matrix kind {other}"))),
        };
        let component = data[pos + 11];
        pos += 12;
        let mut values = Vec::with_capacity(64);
        for i in 0..64 {
            let v = u16::from_le_bytes(data[pos + i * 2..pos + i * 2 + 2].try_into().expect("len"));
            if v >= 2048 {
                return Err(fail(&format!("matrix entry {v} out of range")));
            }
            values.push(v as i32);
        }
        pos += 128;
        entries.push((
            MatrixId {
                image,
                roi,
                kind,
                component,
            },
            PrivateMatrix::new(values),
        ));
    }
    Ok(KeyGrant::from_entries(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use puppies_core::OwnerKey;
    use rand::rngs::StdRng;

    #[test]
    fn dh_agreement_matches() {
        let mut rng = StdRng::seed_from_u64(1);
        let alice = KeyAgreement::new(&mut rng);
        let bob = KeyAgreement::new(&mut rng);
        let ca = alice.agree(bob.public_value());
        let cb = bob.agree(alice.public_value());
        let msg = b"private matrix payload";
        let cipher = ca.encrypt(msg);
        assert_eq!(cb.decrypt(&cipher).unwrap(), msg);
    }

    #[test]
    fn wrong_key_detected() {
        let mut rng = StdRng::seed_from_u64(2);
        let alice = KeyAgreement::new(&mut rng);
        let bob = KeyAgreement::new(&mut rng);
        let eve = KeyAgreement::new(&mut rng);
        let ca = alice.agree(bob.public_value());
        let ce = eve.agree(alice.public_value());
        let cipher = ca.encrypt(b"secret");
        assert!(ce.decrypt(&cipher).is_err());
    }

    #[test]
    fn tampering_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = KeyAgreement::new(&mut rng);
        let b = KeyAgreement::new(&mut rng);
        let ch = a.agree(b.public_value());
        let mut cipher = ch.encrypt(b"data");
        let last = cipher.len() - 1;
        cipher[last] ^= 0x01;
        assert!(a.agree(b.public_value()).decrypt(&cipher).is_err());
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = KeyAgreement::new(&mut rng);
        let b = KeyAgreement::new(&mut rng);
        let ch = a.agree(b.public_value());
        let plain = vec![0u8; 64];
        let cipher = ch.encrypt(&plain);
        assert_ne!(&cipher[8..], &plain[..]);
    }

    #[test]
    fn grant_roundtrip() {
        let key = OwnerKey::from_seed([9u8; 32]);
        let grant = key.grant_rois(77, &[0, 2]);
        let encoded = encode_grant(&grant);
        let back = decode_grant(&encoded).unwrap();
        assert!(back.covers(77, 0));
        assert!(back.covers(77, 2));
        assert!(!back.covers(77, 1));
        assert_eq!(back.explicit_matrix_count(), grant.explicit_matrix_count());
        // Matrices agree entry-wise.
        for (id, m) in grant.to_entries() {
            assert_eq!(back.matrix(id).unwrap(), m);
        }
    }

    #[test]
    fn grant_transport_end_to_end() {
        let mut rng = StdRng::seed_from_u64(5);
        let alice = KeyAgreement::new(&mut rng);
        let bob = KeyAgreement::new(&mut rng);
        let key = OwnerKey::from_seed([1u8; 32]);
        let grant = key.grant_rois(1, &[0]);
        let received = crate::transport_grant(
            &alice.agree(bob.public_value()),
            &bob.agree(alice.public_value()),
            &grant,
        )
        .unwrap();
        assert!(received.covers(1, 0));
    }

    #[test]
    fn truncated_grant_rejected() {
        let key = OwnerKey::from_seed([9u8; 32]);
        let encoded = encode_grant(&key.grant_rois(1, &[0]));
        assert!(decode_grant(&encoded[..encoded.len() / 2]).is_err());
        assert!(decode_grant(&[]).is_err());
    }

    #[test]
    fn mod_pow_sanity() {
        assert_eq!(mod_pow(2, 10, 1_000_000), 1024);
        assert_eq!(mod_pow(G, 0, P), 1);
        // Fermat: g^(p-1) = 1 mod p for prime p.
        assert_eq!(mod_pow(G, P - 1, P), 1);
    }
}
