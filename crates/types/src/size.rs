//! Message-size accounting model.
//!
//! The paper's Table-3 bandwidth estimate "assume\[s\] that each packet has
//! size of 1KB". [`MessageSizeModel`] lets experiments either adopt that
//! flat assumption or account actual serialized sizes, so the Formula-4
//! optimal-rate derivation (`b · x% / c`) can be replayed under both.

/// How to charge bytes for a protocol message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageSizeModel {
    /// Every message costs a flat number of bytes (paper default: 1024).
    Flat(u64),
    /// Messages are charged `header + payload` bytes, where the payload size
    /// is reported by the message itself.
    Accounted {
        /// Fixed per-message header overhead in bytes.
        header: u64,
    },
}

impl MessageSizeModel {
    /// The paper's flat 1 KB assumption.
    pub const PAPER_1KB: MessageSizeModel = MessageSizeModel::Flat(1024);

    /// Average bytes/second given a message count over a span of seconds.
    pub fn bandwidth_bps(&self, messages: u64, total_payload: u64, secs: f64) -> f64 {
        if secs <= 0.0 {
            return 0.0;
        }
        let bytes = match self {
            MessageSizeModel::Flat(b) => b * messages,
            MessageSizeModel::Accounted { header } => header * messages + total_payload,
        };
        bytes as f64 * 8.0 / secs
    }
}

impl Default for MessageSizeModel {
    fn default() -> Self {
        MessageSizeModel::PAPER_1KB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_model_ignores_payload() {
        let m = MessageSizeModel::PAPER_1KB;
        assert_eq!(m.bandwidth_bps(1, 0, 8.0), 1024.0);
        assert_eq!(m.bandwidth_bps(1, 10_000, 8.0), 1024.0);
    }

    #[test]
    fn accounted_model_adds_header() {
        let m = MessageSizeModel::Accounted { header: 40 };
        assert_eq!(m.bandwidth_bps(1, 60, 8.0), 100.0);
    }

    #[test]
    fn paper_table3_bandwidth_is_minimal() {
        // 168 messages of 1KB over 100s = 1.68 KB/s = 13.44 kbit/s.
        let m = MessageSizeModel::PAPER_1KB;
        let bps = m.bandwidth_bps(168, 0, 100.0);
        assert!((bps - 13_762.56).abs() < 1.0, "got {bps}");
        // Far below even a 56 kbit/s dial-up link.
        assert!(bps < 56_000.0);
    }

    #[test]
    fn zero_time_yields_zero_bandwidth() {
        assert_eq!(MessageSizeModel::PAPER_1KB.bandwidth_bps(100, 0, 0.0), 0.0);
    }
}
