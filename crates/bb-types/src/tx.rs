//! Signed transactions and their identities.
//!
//! A transaction in a blockchain is what it is in a database — a sequence of
//! operations applied to state (Section 2 of the paper) — plus a signature.
//! The opaque `payload` carries a contract invocation encoded with
//! [`crate::codec`]; its interpretation belongs to the execution layer.

use crate::address::Address;
use crate::codec::{DecodeError, Decoder, Encoder};
use bb_crypto::{Hash256, KeyPair, KeyRegistry, PublicKey, Signature};

/// A transaction id: the hash of the signed transaction encoding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId(pub Hash256);

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tx:{}", self.0.short())
    }
}

/// A signed transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transaction {
    /// Per-sender sequence number.
    pub nonce: u64,
    /// Sender account.
    pub from: Address,
    /// Target account or contract; [`Address::ZERO`] deploys a contract.
    pub to: Address,
    /// Native currency moved by this transaction.
    pub value: u64,
    /// Encoded contract invocation (opaque to the data layer).
    pub payload: Vec<u8>,
    /// Sender's public key, carried for verification.
    pub public_key: PublicKey,
    /// Signature over [`Transaction::signing_bytes`].
    pub signature: Signature,
}

impl Transaction {
    /// Build and sign a transaction in one step.
    pub fn signed(
        keypair: &KeyPair,
        nonce: u64,
        to: Address,
        value: u64,
        payload: Vec<u8>,
    ) -> Transaction {
        let from = Address::from_public_key(&keypair.public());
        let mut tx = Transaction {
            nonce,
            from,
            to,
            value,
            payload,
            public_key: keypair.public(),
            signature: Signature::from_hash(Hash256::ZERO),
        };
        tx.signature = keypair.sign(&tx.signing_bytes());
        tx
    }

    /// The bytes covered by the signature (everything except the signature).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(96 + self.payload.len());
        e.put_u64(self.nonce)
            .put_raw(self.from.as_bytes())
            .put_raw(self.to.as_bytes())
            .put_u64(self.value)
            .put_bytes(&self.payload)
            .put_raw(&self.public_key.as_hash().0);
        e.finish()
    }

    /// Full canonical encoding, signature included.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(128 + self.payload.len());
        e.put_bytes(&self.signing_bytes()).put_raw(&self.signature.as_hash().0);
        e.finish()
    }

    /// Decode a transaction previously produced by [`Transaction::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Transaction, DecodeError> {
        let mut outer = Decoder::new(bytes);
        let body = outer.bytes()?;
        let sig = Hash256(outer.raw(32)?.try_into().expect("32 bytes"));
        outer.expect_end()?;

        let mut d = Decoder::new(body);
        let nonce = d.u64()?;
        let from = Address(d.raw(20)?.try_into().expect("20 bytes"));
        let to = Address(d.raw(20)?.try_into().expect("20 bytes"));
        let value = d.u64()?;
        let payload = d.bytes()?.to_vec();
        let pk_hash = Hash256(d.raw(32)?.try_into().expect("32 bytes"));
        d.expect_end()?;

        Ok(Transaction {
            nonce,
            from,
            to,
            value,
            payload,
            public_key: PublicKey::from_hash(pk_hash),
            signature: Signature::from_hash(sig),
        })
    }

    /// The transaction id: hash of the full encoding.
    pub fn id(&self) -> TxId {
        // The bytes of `encode()`, hashed from their parts instead of
        // copied into a second buffer: length prefix ‖ body ‖ signature.
        let body = self.signing_bytes();
        let prefix = (body.len() as u32).to_be_bytes();
        TxId(Hash256::digest_parts(&[&prefix, &body, &self.signature.as_hash().0]))
    }

    /// Verify the signature against the network's key registry.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        self.public_key.verify(&self.signing_bytes(), &self.signature, registry)
            && Address::from_public_key(&self.public_key) == self.from
    }

    /// Wire size in bytes (used by the network cost model).
    ///
    /// Equals `encode().len()`, computed without encoding: a 4-byte
    /// length prefix, the signing bytes (nonce 8, from 20, to 20, value 8,
    /// payload with its 4-byte prefix, public-key hash 32) and the 32-byte
    /// signature.
    pub fn byte_size(&self) -> u64 {
        (4 + (8 + 20 + 20 + 8 + 4 + self.payload.len() + 32) + 32) as u64
    }

    /// Is this a contract-creation transaction?
    pub fn is_deploy(&self) -> bool {
        self.to.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(seed: u64, nonce: u64) -> Transaction {
        let kp = KeyPair::from_seed(seed);
        Transaction::signed(&kp, nonce, Address::from_index(9), 42, vec![1, 2, 3])
    }

    #[test]
    fn id_is_stable_and_content_sensitive() {
        let a = sample_tx(1, 0);
        let b = sample_tx(1, 0);
        let c = sample_tx(1, 1);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn encode_decode_round_trip() {
        let tx = sample_tx(2, 5);
        let decoded = Transaction::decode(&tx.encode()).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.id(), tx.id());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = sample_tx(3, 0).encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Transaction::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn signature_verifies_and_detects_tamper() {
        let reg = KeyRegistry::with_seed_range(8);
        let mut tx = sample_tx(4, 0);
        assert!(tx.verify(&reg));
        tx.value += 1;
        assert!(!tx.verify(&reg));
    }

    #[test]
    fn spoofed_sender_rejected() {
        let reg = KeyRegistry::with_seed_range(8);
        let mut tx = sample_tx(5, 0);
        tx.from = Address::from_index(99); // claim someone else's account
        tx.signature = KeyPair::from_seed(5).sign(&tx.signing_bytes());
        assert!(!tx.verify(&reg));
    }

    #[test]
    fn deploy_detection() {
        let kp = KeyPair::from_seed(6);
        let deploy = Transaction::signed(&kp, 0, Address::ZERO, 0, vec![0xde]);
        assert!(deploy.is_deploy());
        assert!(!sample_tx(6, 0).is_deploy());
    }

    #[test]
    fn byte_size_counts_payload() {
        let kp = KeyPair::from_seed(7);
        let small = Transaction::signed(&kp, 0, Address::from_index(1), 0, vec![0; 10]);
        let big = Transaction::signed(&kp, 0, Address::from_index(1), 0, vec![0; 500]);
        assert_eq!(big.byte_size() - small.byte_size(), 490);
    }

    #[test]
    fn id_and_byte_size_match_the_encoding_seeded() {
        let mut rng = bb_sim::SimRng::seed_from_u64(0x5EED_0005);
        for payload_len in [0usize, 1, 3, 64, 120, 220, 1024, 4096, 9000] {
            let mut payload = vec![0u8; payload_len];
            rng.fill_bytes(&mut payload);
            let kp = KeyPair::from_seed(rng.next_u64());
            let to = if rng.below(4) == 0 {
                Address::ZERO
            } else {
                Address::from_index(rng.below(1000))
            };
            let tx = Transaction::signed(&kp, rng.next_u64(), to, rng.next_u64(), payload);
            let encoded = tx.encode();
            assert_eq!(tx.id(), TxId(Hash256::digest(&encoded)), "payload {payload_len}");
            assert_eq!(tx.byte_size(), encoded.len() as u64, "payload {payload_len}");
        }
    }
}
