//! [`Codec`] impls for the service API: [`Command`], [`Response`] and the
//! types they carry — reads, node reports, the Table-1
//! [`ConsistencySpec`] and its leaves, and the resolution references.
//! Ids, updates and [`idea_types::WireError`] are encoded in `idea-types`,
//! the vector forms in `idea-vv`. Round-trip equality over every variant
//! is property-tested in `idea-transport`'s `tests/codec_roundtrip.rs`.

use crate::client::{BackgroundFreq, ReadConsistency};
use crate::quantify::{MaxBounds, Weights};
use crate::resolution::{ReferenceState, ReferenceWire, ResolutionPolicy};
use crate::{Command, ConsistencySpec, NodeReport, ReadResult, Response};
use idea_types::codec::{decode_len, Codec, CodecError, Reader};
use idea_types::{
    ConsistencyLevel, NodeId, ObjectId, SimDuration, SimTime, Update, UpdatePayload, WireError,
    WriterId,
};
use idea_vv::VersionVector;

// ====================================================================
// Resolution references
// ====================================================================

impl Codec for ReferenceState {
    fn encode(&self, out: &mut Vec<u8>) {
        self.winner.encode(out);
        self.counts.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ReferenceState {
            winner: Option::<NodeId>::decode(r)?,
            counts: VersionVector::decode(r)?,
        })
    }
}

impl Codec for ReferenceWire {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReferenceWire::Full(reference) => {
                out.push(0);
                reference.encode(out);
            }
            ReferenceWire::Delta { winner, diffs } => {
                out.push(1);
                winner.encode(out);
                diffs.len().encode(out);
                for (w, c) in diffs {
                    w.encode(out);
                    // Unlike a vector entry, a zero *override* is
                    // meaningful: it erases the writer from the base.
                    c.encode(out);
                }
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ReferenceWire::Full(ReferenceState::decode(r)?)),
            1 => {
                let winner = Option::<NodeId>::decode(r)?;
                let len = decode_len(r)?;
                let mut diffs = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    diffs.push((WriterId::decode(r)?, u64::decode(r)?));
                }
                Ok(ReferenceWire::Delta { winner, diffs })
            }
            _ => Err(r.err("ReferenceWire tag out of domain")),
        }
    }
}

// ====================================================================
// Client-layer configuration types
// ====================================================================

impl Codec for ReadConsistency {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReadConsistency::Any => out.push(0),
            ReadConsistency::AtLeast(level) => {
                out.push(1);
                level.encode(out);
            }
            ReadConsistency::Fresh => out.push(2),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ReadConsistency::Any),
            1 => Ok(ReadConsistency::AtLeast(ConsistencyLevel::decode(r)?)),
            2 => Ok(ReadConsistency::Fresh),
            _ => Err(r.err("ReadConsistency tag out of domain")),
        }
    }
}

impl Codec for MaxBounds {
    fn encode(&self, out: &mut Vec<u8>) {
        self.numerical.encode(out);
        self.order.encode(out);
        self.staleness.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MaxBounds {
            numerical: f64::decode(r)?,
            order: f64::decode(r)?,
            staleness: SimDuration::decode(r)?,
        })
    }
}

impl Codec for Weights {
    fn encode(&self, out: &mut Vec<u8>) {
        self.numerical.encode(out);
        self.order.encode(out);
        self.staleness.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Weights {
            numerical: f64::decode(r)?,
            order: f64::decode(r)?,
            staleness: f64::decode(r)?,
        })
    }
}

impl Codec for ResolutionPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.code().encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let code = u8::decode(r)?;
        ResolutionPolicy::from_code(code)
            .ok_or_else(|| r.err("resolution policy code out of domain"))
    }
}

impl Codec for BackgroundFreq {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BackgroundFreq::Disabled => out.push(0),
            BackgroundFreq::Every(period) => {
                out.push(1);
                period.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(BackgroundFreq::Disabled),
            1 => Ok(BackgroundFreq::Every(SimDuration::decode(r)?)),
            _ => Err(r.err("BackgroundFreq tag out of domain")),
        }
    }
}

impl Codec for ConsistencySpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.bounds.encode(out);
        self.weights.encode(out);
        self.policy.encode(out);
        self.hint.encode(out);
        self.background.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let spec = ConsistencySpec {
            bounds: Option::<MaxBounds>::decode(r)?,
            weights: Option::<Weights>::decode(r)?,
            policy: Option::<ResolutionPolicy>::decode(r)?,
            hint: Option::<f64>::decode(r)?,
            background: Option::<BackgroundFreq>::decode(r)?,
        };
        spec.validate().map_err(|_| r.err("consistency spec fields out of domain"))?;
        Ok(spec)
    }
}

// ====================================================================
// Command / Response
// ====================================================================

impl Codec for Command {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Command::Write { object, meta_delta, payload } => {
                out.push(0);
                object.encode(out);
                meta_delta.encode(out);
                payload.encode(out);
            }
            Command::Read { object, consistency } => {
                out.push(1);
                object.encode(out);
                consistency.encode(out);
            }
            Command::Peek { object } => {
                out.push(2);
                object.encode(out);
            }
            Command::Level { object } => {
                out.push(3);
                object.encode(out);
            }
            Command::Report { object } => {
                out.push(4);
                object.encode(out);
            }
            Command::DemandResolution { object } => {
                out.push(5);
                object.encode(out);
            }
            Command::Dissatisfied { object, new_weights } => {
                out.push(6);
                object.encode(out);
                new_weights.encode(out);
            }
            Command::SetConsistencyMetric { numerical_max, order_max, staleness_max } => {
                out.push(7);
                numerical_max.encode(out);
                order_max.encode(out);
                staleness_max.encode(out);
            }
            Command::SetWeight { numerical, order, staleness } => {
                out.push(8);
                numerical.encode(out);
                order.encode(out);
                staleness.encode(out);
            }
            Command::SetResolution { code } => {
                out.push(9);
                code.encode(out);
            }
            Command::SetHint { hint } => {
                out.push(10);
                hint.encode(out);
            }
            Command::SetBackgroundFreq { period } => {
                out.push(11);
                period.encode(out);
            }
            Command::SetPriority { node, priority } => {
                out.push(12);
                node.encode(out);
                priority.encode(out);
            }
            Command::Configure { spec } => {
                out.push(13);
                spec.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Command::Write {
                object: ObjectId::decode(r)?,
                meta_delta: i64::decode(r)?,
                payload: UpdatePayload::decode(r)?,
            }),
            1 => Ok(Command::Read {
                object: ObjectId::decode(r)?,
                consistency: ReadConsistency::decode(r)?,
            }),
            2 => Ok(Command::Peek { object: ObjectId::decode(r)? }),
            3 => Ok(Command::Level { object: ObjectId::decode(r)? }),
            4 => Ok(Command::Report { object: ObjectId::decode(r)? }),
            5 => Ok(Command::DemandResolution { object: ObjectId::decode(r)? }),
            6 => Ok(Command::Dissatisfied {
                object: ObjectId::decode(r)?,
                new_weights: Option::<Weights>::decode(r)?,
            }),
            7 => Ok(Command::SetConsistencyMetric {
                numerical_max: f64::decode(r)?,
                order_max: f64::decode(r)?,
                staleness_max: SimDuration::decode(r)?,
            }),
            8 => Ok(Command::SetWeight {
                numerical: f64::decode(r)?,
                order: f64::decode(r)?,
                staleness: f64::decode(r)?,
            }),
            9 => Ok(Command::SetResolution { code: u8::decode(r)? }),
            10 => Ok(Command::SetHint { hint: f64::decode(r)? }),
            11 => Ok(Command::SetBackgroundFreq { period: Option::<SimDuration>::decode(r)? }),
            12 => Ok(Command::SetPriority { node: NodeId::decode(r)?, priority: u8::decode(r)? }),
            13 => Ok(Command::Configure { spec: ConsistencySpec::decode(r)? }),
            _ => Err(r.err("Command tag out of domain")),
        }
    }
}

impl Codec for ReadResult {
    fn encode(&self, out: &mut Vec<u8>) {
        self.object.encode(out);
        self.meta.encode(out);
        self.updates.encode(out);
        self.latest_update.encode(out);
        self.level.encode(out);
        self.probed.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ReadResult {
            object: ObjectId::decode(r)?,
            meta: i64::decode(r)?,
            updates: usize::decode(r)?,
            latest_update: Option::<SimTime>::decode(r)?,
            level: ConsistencyLevel::decode(r)?,
            probed: bool::decode(r)?,
        })
    }
}

impl Codec for NodeReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.level.encode(out);
        self.hint_floor.encode(out);
        self.resolutions_initiated.encode(out);
        self.rollbacks.encode(out);
        self.top_members.encode(out);
        self.meta.encode(out);
        self.updates.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeReport {
            node: NodeId::decode(r)?,
            level: ConsistencyLevel::decode(r)?,
            hint_floor: ConsistencyLevel::decode(r)?,
            resolutions_initiated: u64::decode(r)?,
            rollbacks: u64::decode(r)?,
            top_members: Vec::<NodeId>::decode(r)?,
            meta: i64::decode(r)?,
            updates: usize::decode(r)?,
        })
    }
}

impl Codec for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => out.push(0),
            Response::Written { update } => {
                out.push(1);
                update.encode(out);
            }
            Response::Value { read } => {
                out.push(2);
                read.encode(out);
            }
            Response::Level { level } => {
                out.push(3);
                level.encode(out);
            }
            Response::Report { report } => {
                out.push(4);
                report.encode(out);
            }
            Response::Rejected { error } => {
                out.push(5);
                error.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(Response::Done),
            1 => Ok(Response::Written { update: Update::decode(r)? }),
            2 => Ok(Response::Value { read: ReadResult::decode(r)? }),
            3 => Ok(Response::Level { level: ConsistencyLevel::decode(r)? }),
            4 => Ok(Response::Report { report: NodeReport::decode(r)? }),
            5 => Ok(Response::Rejected { error: WireError::decode(r)? }),
            _ => Err(r.err("Response tag out of domain")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_forms_round_trip() {
        let vv = VersionVector::from_pairs([(WriterId(1), 4), (WriterId(9), 2)]);
        let full = ReferenceWire::Full(ReferenceState { winner: Some(NodeId(3)), counts: vv });
        assert_eq!(ReferenceWire::from_bytes(&full.to_bytes()).unwrap(), full);
        // A zero override is meaningful in a Delta (it erases the writer).
        let compact =
            ReferenceWire::Delta { winner: None, diffs: vec![(WriterId(1), 0), (WriterId(2), 5)] };
        assert_eq!(ReferenceWire::from_bytes(&compact.to_bytes()).unwrap(), compact);
        // An unknown ReferenceWire tag is out of domain.
        assert!(ReferenceWire::from_bytes(&[2]).is_err());
    }

    #[test]
    fn out_of_domain_config_values_are_rejected() {
        // Resolution policy code 0 is unassigned.
        assert!(ResolutionPolicy::from_bytes(&[0]).is_err());
        // An out-of-domain hint inside a spec fails revalidation on decode.
        let mut buf = Vec::new();
        Option::<MaxBounds>::None.encode(&mut buf);
        Option::<Weights>::None.encode(&mut buf);
        Option::<ResolutionPolicy>::None.encode(&mut buf);
        Some(7.5f64).encode(&mut buf);
        Option::<BackgroundFreq>::None.encode(&mut buf);
        assert!(ConsistencySpec::from_bytes(&buf).is_err());
    }
}
