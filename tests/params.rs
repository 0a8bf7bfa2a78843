//! Integration test: the protocol parameters and header sizes the paper
//! states (Figure 3, Figure 6, §4.6) hold in the implementation.

use netfence_core::feedback::{Action, Feedback};
use netfence_core::header::NetFenceHeader;
use netfence_core::passport::PASSPORT_HEADER_LEN;
use netfence_core::prelude::*;
use netfence_sim::queue::RedParams;

#[test]
fn figure3_parameters() {
    let cfg = Config::default();
    assert_eq!(cfg.ilim, 2 * SEC);
    assert_eq!(cfg.feedback_expiry, 4 * SEC);
    assert_eq!(cfg.additive_increase, 12_000);
    assert!((cfg.multiplicative_decrease - 0.1).abs() < 1e-12);
    assert!((cfg.loss_threshold - 0.02).abs() < 1e-12);
    assert!((cfg.request_channel_fraction - 0.05).abs() < 1e-12);
    assert!(cfg.validate().is_empty());

    // The queue rows of Figure 3 live in the simulator's RED parameters.
    // 10 Mbps keeps every threshold above its small-link floor.
    let capacity_bps = 10_000_000;
    let red = RedParams::paper_defaults(capacity_bps);
    let qlim_bytes = (0.2 * capacity_bps as f64 / 8.0) as usize;
    assert_eq!(red.limit_bytes, qlim_bytes);
    assert_eq!(red.min_thresh, qlim_bytes / 2);
    assert_eq!(red.max_thresh, qlim_bytes * 3 / 4);
    assert!((red.wq - 0.1).abs() < 1e-12);
    assert!((red.max_p - 0.1).abs() < 1e-12);
}

#[test]
fn header_sizes_match_section_6_1() {
    let mon =
        Feedback::Mon { link: LinkId(1), action: Action::Decr, ts: 9, token: 1, token_nop: None };
    let nop = Feedback::Nop { ts: 9, token: 1 };
    let worst = NetFenceHeader::regular(6, mon, Some(mon));
    assert_eq!(worst.encoded_len(), 28, "worst case header is 28 bytes");
    let common = NetFenceHeader::regular(6, nop, Some(nop));
    assert_eq!(common.nominal_len(), 20, "common case accounted as 20 bytes");
    // §4.6: 92-byte request packet = 40 TCP/IP + 28 NetFence + 24 Passport.
    assert_eq!(40 + worst.encoded_len() + PASSPORT_HEADER_LEN, 92);
}
