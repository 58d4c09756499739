//! Wire messages of the distributed protocol (paper Fig. 2).
//!
//! Each variant carries the logical payload exchanged between a front-end
//! and a datacenter (or the coordinator); [`Message::wire_bytes`] gives the
//! size a real deployment would put on the wire (payload + a fixed header),
//! which the statistics use for byte accounting.
//!
//! # Checksummed framing
//!
//! [`Message::encode`] serializes a message into a self-verifying frame —
//! `[magic, kind, payload (LE fields), crc32 (LE)]` — and
//! [`Message::decode`] rejects any frame whose CRC32 does not match with a
//! typed [`ufc_core::CoreError::CorruptPayload`]. This is the verify-on-
//! receive layer the corruption-injection machinery (see [`crate::fault`])
//! exercises: a receiver that checks the trailer detects a poisoned payload
//! and requests a retransmit instead of folding garbage into its iterate.
//! The CRC is the standard IEEE-reflected polynomial (`0xEDB88320`),
//! hand-rolled over a const-built table so the crate stays std-only.

use ufc_core::CoreError;

use crate::codec::{corrupt, get_f64, get_u32, get_u64, take};

/// Fixed per-message header: sender, receiver, iteration, type tag.
pub const HEADER_BYTES: usize = 16;

/// Extra on-wire bytes a checksummed frame carries over the plain payload
/// accounting: the magic byte plus the 4-byte CRC32 trailer.
pub const CHECKSUM_OVERHEAD_BYTES: usize = 5;

/// First byte of every encoded frame.
pub const FRAME_MAGIC: u8 = 0xFC;

/// Hard upper bound on an encoded [`Message`] frame. The largest legal
/// frame is a `ResidualReport` (magic + kind + 28 payload bytes + CRC =
/// 34 bytes); anything bigger is rejected before any field is parsed, so
/// a hostile or garbled length prefix can never drive an allocation or a
/// deep parse.
pub const MAX_FRAME_BYTES: usize = 64;

/// Byte offset of the f64 value field inside an encoded
/// [`Message::LambdaTilde`]/[`Message::ATilde`] frame (after magic, kind,
/// and the two u32 endpoint indices) — the bytes corruption injection
/// targets.
pub(crate) const VALUE_OFFSET: usize = 10;

/// CRC32 lookup table for the IEEE-reflected polynomial, built at compile
/// time.
const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// CRC32 (IEEE 802.3, reflected) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Step 1 — front-end `i` sends its predicted routing share to
    /// datacenter `j`.
    LambdaTilde {
        /// Originating front-end.
        frontend: usize,
        /// Destination datacenter.
        datacenter: usize,
        /// Predicted `λ̃_ij` (kilo-servers).
        value: f64,
    },
    /// Step 4 — datacenter `j` sends the corrected auxiliary routing share
    /// back to front-end `i`.
    ATilde {
        /// Destination front-end.
        frontend: usize,
        /// Originating datacenter.
        datacenter: usize,
        /// Predicted `ã_ij` (kilo-servers).
        value: f64,
    },
    /// Step 5 — a node reports its local residual contributions to the
    /// coordinator.
    ResidualReport {
        /// Reporting node (front-ends then datacenters).
        node: usize,
        /// Local link residual (kilo-servers).
        link: f64,
        /// Local balance residual (MW; zero for front-ends).
        balance: f64,
        /// Local dual/iterate movement.
        movement: f64,
    },
    /// Coordinator broadcast: continue to the next iteration or stop.
    Control {
        /// `true` to stop (converged or iteration cap).
        stop: bool,
    },
    /// Checkpoint round-trip: the coordinator requests a snapshot and a
    /// node ships back its serialized iterate slice.
    Checkpoint {
        /// Node whose state is snapshotted (front-ends then datacenters).
        node: usize,
        /// Serialized snapshot size (bytes) — the payload put on the wire.
        payload_bytes: usize,
    },
    /// Coordinator broadcast announcing a membership change (datacenter
    /// eviction or readmission) to every surviving front-end.
    Membership {
        /// Datacenter whose status changed.
        datacenter: usize,
        /// `true` for eviction, `false` for readmission.
        evict: bool,
    },
    /// A datacenter reports one scheduled extension block's corrected value
    /// to the coordinator (e.g. the storage block's net discharge `d_j`).
    /// The block is identified by its stable [`BlockKind`] wire id, so the
    /// message generalizes to any future block without a new kind tag.
    ///
    /// [`BlockKind`]: ufc_core::BlockKind
    BlockReport {
        /// Reporting datacenter.
        datacenter: usize,
        /// The block's [`ufc_core::BlockKind::wire_id`].
        block: u8,
        /// The block's corrected scalar value this iteration.
        value: f64,
    },
}

impl Message {
    /// Bytes this message would occupy on the wire.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        let payload = match self {
            Message::LambdaTilde { .. } | Message::ATilde { .. } => 8,
            Message::ResidualReport { .. } => 24,
            Message::Control { .. } => 1,
            Message::Checkpoint { payload_bytes, .. } => *payload_bytes,
            Message::Membership { .. } => 2,
            Message::BlockReport { .. } => 13,
        };
        HEADER_BYTES + payload
    }

    /// `true` for the per-pair data messages (λ̃/ã), `false` for control
    /// traffic.
    #[must_use]
    pub fn is_data(&self) -> bool {
        matches!(self, Message::LambdaTilde { .. } | Message::ATilde { .. })
    }

    /// The f64 payload of a data message (`None` for control traffic).
    #[must_use]
    pub fn data_value(&self) -> Option<f64> {
        match self {
            Message::LambdaTilde { value, .. } | Message::ATilde { value, .. } => Some(*value),
            _ => None,
        }
    }

    fn kind_tag(&self) -> u8 {
        match self {
            Message::LambdaTilde { .. } => 0,
            Message::ATilde { .. } => 1,
            Message::ResidualReport { .. } => 2,
            Message::Control { .. } => 3,
            Message::Checkpoint { .. } => 4,
            Message::Membership { .. } => 5,
            Message::BlockReport { .. } => 6,
        }
    }

    /// Serializes this message into a self-verifying frame:
    /// `[FRAME_MAGIC, kind, payload fields (LE), crc32 (LE)]`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![FRAME_MAGIC, self.kind_tag()];
        match self {
            Message::LambdaTilde {
                frontend,
                datacenter,
                value,
            }
            | Message::ATilde {
                frontend,
                datacenter,
                value,
            } => {
                buf.extend_from_slice(&(*frontend as u32).to_le_bytes());
                buf.extend_from_slice(&(*datacenter as u32).to_le_bytes());
                debug_assert_eq!(buf.len(), VALUE_OFFSET);
                buf.extend_from_slice(&value.to_le_bytes());
            }
            Message::ResidualReport {
                node,
                link,
                balance,
                movement,
            } => {
                buf.extend_from_slice(&(*node as u32).to_le_bytes());
                buf.extend_from_slice(&link.to_le_bytes());
                buf.extend_from_slice(&balance.to_le_bytes());
                buf.extend_from_slice(&movement.to_le_bytes());
            }
            Message::Control { stop } => buf.push(u8::from(*stop)),
            Message::Checkpoint {
                node,
                payload_bytes,
            } => {
                buf.extend_from_slice(&(*node as u32).to_le_bytes());
                buf.extend_from_slice(&(*payload_bytes as u64).to_le_bytes());
            }
            Message::Membership { datacenter, evict } => {
                buf.extend_from_slice(&(*datacenter as u32).to_le_bytes());
                buf.push(u8::from(*evict));
            }
            Message::BlockReport {
                datacenter,
                block,
                value,
            } => {
                buf.extend_from_slice(&(*datacenter as u32).to_le_bytes());
                buf.push(*block);
                buf.extend_from_slice(&value.to_le_bytes());
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Verifies and parses a frame produced by [`Message::encode`].
    ///
    /// # Errors
    ///
    /// [`CoreError::CorruptPayload`] if the frame is truncated, oversized
    /// (see [`MAX_FRAME_BYTES`]), carries the wrong magic or an unknown
    /// kind, has trailing garbage, or fails its CRC32 check. Never panics,
    /// whatever the input bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, CoreError> {
        if bytes.len() < 2 + 4 {
            return Err(corrupt(format!("frame too short ({} bytes)", bytes.len())));
        }
        if bytes.len() > MAX_FRAME_BYTES {
            return Err(corrupt(format!(
                "frame too long ({} bytes, max {MAX_FRAME_BYTES})",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = <[u8; 4]>::try_from(trailer)
            .map(u32::from_le_bytes)
            .map_err(|_| corrupt("frame trailer is not 4 bytes".to_owned()))?;
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(format!(
                "crc32 mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        if body[0] != FRAME_MAGIC {
            return Err(corrupt(format!("bad frame magic {:#04x}", body[0])));
        }
        let kind = body[1];
        let mut pos = 2;
        let msg = match kind {
            0 | 1 => {
                let frontend = get_u32(body, &mut pos)?;
                let datacenter = get_u32(body, &mut pos)?;
                let value = get_f64(body, &mut pos)?;
                if kind == 0 {
                    Message::LambdaTilde {
                        frontend,
                        datacenter,
                        value,
                    }
                } else {
                    Message::ATilde {
                        frontend,
                        datacenter,
                        value,
                    }
                }
            }
            2 => Message::ResidualReport {
                node: get_u32(body, &mut pos)?,
                link: get_f64(body, &mut pos)?,
                balance: get_f64(body, &mut pos)?,
                movement: get_f64(body, &mut pos)?,
            },
            3 => Message::Control {
                stop: take::<1>(body, &mut pos)?[0] != 0,
            },
            4 => Message::Checkpoint {
                node: get_u32(body, &mut pos)?,
                payload_bytes: get_u64(body, &mut pos)? as usize,
            },
            5 => Message::Membership {
                datacenter: get_u32(body, &mut pos)?,
                evict: take::<1>(body, &mut pos)?[0] != 0,
            },
            6 => {
                let datacenter = get_u32(body, &mut pos)?;
                let block = take::<1>(body, &mut pos)?[0];
                if ufc_core::BlockKind::from_wire_id(block).is_none() {
                    return Err(corrupt(format!("unknown block wire id {block}")));
                }
                Message::BlockReport {
                    datacenter,
                    block,
                    value: get_f64(body, &mut pos)?,
                }
            }
            other => return Err(corrupt(format!("unknown message kind {other}"))),
        };
        if pos != body.len() {
            return Err(corrupt(format!(
                "trailing garbage: frame body is {} bytes, parsed {pos}",
                body.len()
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        let m = Message::LambdaTilde {
            frontend: 0,
            datacenter: 1,
            value: 1.5,
        };
        assert_eq!(m.wire_bytes(), HEADER_BYTES + 8);
        assert!(m.is_data());

        let r = Message::ResidualReport {
            node: 3,
            link: 0.0,
            balance: 0.0,
            movement: 0.0,
        };
        assert_eq!(r.wire_bytes(), HEADER_BYTES + 24);
        assert!(!r.is_data());

        let c = Message::Control { stop: true };
        assert_eq!(c.wire_bytes(), HEADER_BYTES + 1);
        assert!(!c.is_data());
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    fn all_variants() -> Vec<Message> {
        vec![
            Message::LambdaTilde {
                frontend: 3,
                datacenter: 1,
                value: -0.75,
            },
            Message::ATilde {
                frontend: 0,
                datacenter: 2,
                value: 1.5e-3,
            },
            Message::ResidualReport {
                node: 7,
                link: 0.1,
                balance: 0.2,
                movement: 0.3,
            },
            Message::Control { stop: true },
            Message::Checkpoint {
                node: 4,
                payload_bytes: 321,
            },
            Message::Membership {
                datacenter: 1,
                evict: false,
            },
            Message::BlockReport {
                datacenter: 2,
                block: ufc_core::BlockKind::Storage.wire_id(),
                value: -0.125,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trips_every_variant() {
        for msg in all_variants() {
            let frame = msg.encode();
            assert_eq!(Message::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn data_frames_put_the_value_at_the_documented_offset() {
        let msg = Message::LambdaTilde {
            frontend: 1,
            datacenter: 0,
            value: 2.25,
        };
        let frame = msg.encode();
        let bytes: [u8; 8] = frame[VALUE_OFFSET..VALUE_OFFSET + 8].try_into().unwrap();
        assert_eq!(f64::from_le_bytes(bytes), 2.25);
        assert_eq!(
            frame.len(),
            VALUE_OFFSET + 8 + 4,
            "frame = magic+kind+indices+value+crc"
        );
        assert_eq!(CHECKSUM_OVERHEAD_BYTES, 5);
    }

    #[test]
    fn decode_rejects_tampered_frames_with_typed_errors() {
        let frame = Message::ATilde {
            frontend: 2,
            datacenter: 5,
            value: 0.5,
        }
        .encode();
        // Any single corrupted byte — payload, magic, kind, or trailer —
        // must surface as a typed error.
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x10;
            let err = Message::decode(&bad).unwrap_err();
            assert!(
                matches!(err, CoreError::CorruptPayload { .. }),
                "byte {pos}: {err}"
            );
        }
        // Truncations never panic either.
        for len in 0..frame.len() {
            assert!(Message::decode(&frame[..len]).is_err());
        }
    }

    #[test]
    fn block_report_rejects_tampering_truncation_and_unknown_blocks() {
        let frame = Message::BlockReport {
            datacenter: 3,
            block: ufc_core::BlockKind::Storage.wire_id(),
            value: 0.75,
        }
        .encode();
        assert_eq!(frame.len(), 2 + 13 + 4, "magic+kind+payload+crc");
        // Every single-byte flip and every truncation is a typed error.
        for pos in 0..frame.len() {
            let mut bad = frame.clone();
            bad[pos] ^= 0x08;
            assert!(
                matches!(
                    Message::decode(&bad).unwrap_err(),
                    CoreError::CorruptPayload { .. }
                ),
                "flipped byte {pos} must fail typed"
            );
            assert!(Message::decode(&frame[..pos]).is_err());
        }
        // A block id outside the registered kinds fails even with a valid
        // CRC (a peer speaking a newer schedule revision).
        let mut body = frame[..frame.len() - 4].to_vec();
        body[6] = 0xEE; // magic+kind+4-byte datacenter, then the block id
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let err = Message::decode(&body).unwrap_err();
        assert!(err.to_string().contains("unknown block wire id"), "{err}");
    }

    #[test]
    fn decode_rejects_oversized_frames_before_parsing() {
        // A frame padded past the bound is rejected up front — even when
        // the prefix would otherwise parse.
        let mut bloated = Message::Control { stop: false }.encode();
        bloated.resize(MAX_FRAME_BYTES + 1, 0);
        let err = Message::decode(&bloated).unwrap_err();
        assert!(
            matches!(err, CoreError::CorruptPayload { .. }),
            "oversized frame must fail typed: {err}"
        );
        assert!(err.to_string().contains("too long"), "{err}");
        // Every legal frame fits the bound with headroom.
        for msg in all_variants() {
            assert!(msg.encode().len() <= MAX_FRAME_BYTES);
        }
    }
}
