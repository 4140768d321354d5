//! HighSpeed TCP (RFC 3649) — the LFN survey's table-driven AIMD
//! modification (arXiv:1705.08929 §III). Standard TCP needs an unrealistic
//! loss rate (~1 in 5 billion packets) to sustain a 10 Gbit/s window; RFC
//! 3649 bends the response function above a 38-segment window so that the
//! per-RTT additive increase `a(w)` grows with the window (up to 72
//! segments) while the multiplicative decrease `b(w)` relaxes from the
//! standard 0.5 down to 0.1. Below `Low_Window` the scheme is bit-for-bit
//! standard TCP, which is what keeps it fair on low-BDP paths.
//!
//! The `a(w)`/`b(w)` schedule is precomputed once into a quantized response
//! table (one row per integer increment, the same shape as the RFC's
//! Appendix B table and Linux's `tcp_highspeed.c`): the row thresholds are
//! derived analytically from the RFC §5 formulas at startup, and all per-ACK
//! arithmetic afterwards is integer, so runs stay byte-deterministic.

use crate::reno::Reno;
use std::sync::OnceLock;

/// RFC 3649 §5: the window below which the scheme is standard TCP.
pub const LOW_WINDOW: u32 = 38;
/// RFC 3649 §5: the window the high end of the response function targets.
pub const HIGH_WINDOW: u32 = 83_000;
/// RFC 3649 §5: the packet drop rate at `HIGH_WINDOW`.
pub const HIGH_P: f64 = 1e-7;
/// RFC 3649 §5: the multiplicative decrease at `HIGH_WINDOW`.
pub const HIGH_DECREASE: f64 = 0.1;

/// One row of the quantized response table: for windows of at least
/// `min_cwnd_segments` segments (and below the next row's threshold), use
/// additive increase `ai` segments per RTT and multiplicative decrease
/// `b_q8 / 256`.
#[derive(Debug, Clone, Copy)]
struct HsRow {
    min_cwnd_segments: u32,
    ai: u32,
    b_q8: u32,
}

/// RFC 3649 §5 multiplicative decrease: log-linear interpolation from 0.5 at
/// `LOW_WINDOW` to `HIGH_DECREASE` at `HIGH_WINDOW`.
fn b_of_w(w: f64) -> f64 {
    let lo = (LOW_WINDOW as f64).ln();
    let hi = (HIGH_WINDOW as f64).ln();
    let frac = ((w.ln() - lo) / (hi - lo)).clamp(0.0, 1.0);
    (HIGH_DECREASE - 0.5) * frac + 0.5
}

/// RFC 3649 §5 additive increase: `a(w) = w² · p(w) · 2 · b(w) / (2 − b(w))`
/// with `p(w)` from the HSTCP response function
/// `w = Low_Window · (p / Low_P)^S`.
fn a_of_w(w: f64) -> f64 {
    if w <= LOW_WINDOW as f64 {
        return 1.0;
    }
    // Low_P: the loss rate at which standard TCP sustains Low_Window
    // (deterministic model, w = 1.5/p w² form ⇒ p = 1.5/w²).
    let low_p = 1.5 / (LOW_WINDOW as f64 * LOW_WINDOW as f64);
    let s = ((HIGH_WINDOW as f64).ln() - (LOW_WINDOW as f64).ln()) / (HIGH_P.ln() - low_p.ln());
    let p = low_p * (w / LOW_WINDOW as f64).powf(1.0 / s);
    let b = b_of_w(w);
    (w * w * p * 2.0 * b / (2.0 - b)).max(1.0)
}

/// The quantized table: row `k` (0-based) holds the smallest integer window
/// whose analytic increase reaches `k + 1` segments per RTT, paired with the
/// quantized decrease at that window. Shared by every HighSpeed instance.
fn response_table() -> &'static [HsRow] {
    static TABLE: OnceLock<Vec<HsRow>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rows = vec![HsRow {
            min_cwnd_segments: 0,
            ai: 1,
            b_q8: 128, // 0.5: standard TCP below LOW_WINDOW
        }];
        let mut w = LOW_WINDOW + 1;
        let mut ai = 2;
        // a(w) tops out at 72 per the RFC's Appendix B; walk the integer
        // windows once, emitting a row wherever the increase steps up.
        while w <= HIGH_WINDOW && ai <= 72 {
            if a_of_w(w as f64) >= ai as f64 {
                rows.push(HsRow {
                    min_cwnd_segments: w,
                    ai,
                    b_q8: (b_of_w(w as f64) * 256.0).round() as u32,
                });
                ai += 1;
            } else {
                w += 1;
            }
        }
        rows
    })
}

/// Table row for the current window.
fn row(r: &Reno) -> HsRow {
    let w = (r.cwnd / r.mss).min(u32::MAX as u64) as u32;
    let table = response_table();
    let idx = table.partition_point(|row| row.min_cwnd_segments <= w);
    table[idx - 1]
}

/// Congestion-avoidance growth for one ACK: byte-counting a(w)·MSS²/cwnd,
/// accumulating a(w) bytes per acked byte and adding one MSS per
/// accumulated window.
pub(crate) fn grow(r: &mut Reno, accum: &mut u64, newly_acked: u64) {
    *accum += newly_acked.min(2 * r.mss) * row(r).ai as u64;
    if *accum >= r.cwnd {
        let steps = *accum / r.cwnd;
        *accum -= steps * r.cwnd;
        r.cwnd += steps * r.mss;
    }
}

/// The bytes of `flight` a loss keeps, `(1 − b(w)) · flight`: the RFC's
/// decrease, applied to the flight size like the Reno baseline halves it.
pub(crate) fn kept(r: &Reno, flight: u64) -> u64 {
    flight.saturating_mul(256 - row(r).b_q8 as u64) / 256
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CongestionEvent;
    use crate::{test_engine, test_view, CcAlgorithm, CcEngine};

    const MSS: u32 = 1000;

    fn hs(cwnd_segments: u64, ssthresh_segments: u64) -> CcEngine {
        let (cwnd, ssthresh) = (cwnd_segments * MSS as u64, ssthresh_segments * MSS as u64);
        test_engine(CcAlgorithm::HighSpeed, cwnd, ssthresh, MSS)
    }

    #[test]
    fn table_matches_the_rfc_shape() {
        let t = response_table();
        // One standard row plus one row per increase step 2..=72.
        assert_eq!(t.first().unwrap().ai, 1);
        assert_eq!(t.last().unwrap().ai, 72);
        assert_eq!(t.len(), 72);
        // Thresholds strictly increase, increases step by exactly one, and
        // the decrease relaxes monotonically from 0.5 toward 0.1.
        for pair in t.windows(2) {
            assert!(pair[0].min_cwnd_segments < pair[1].min_cwnd_segments);
            assert_eq!(pair[0].ai + 1, pair[1].ai);
            assert!(pair[0].b_q8 >= pair[1].b_q8);
        }
        // RFC 3649 Appendix B anchors: a(w)=1/b=0.5 through 38 segments;
        // the first bent row starts right above it.
        assert_eq!(t[0].b_q8, 128);
        assert!(t[1].min_cwnd_segments > LOW_WINDOW);
        assert!(t[1].min_cwnd_segments < 150, "{}", t[1].min_cwnd_segments);
        assert!(t.last().unwrap().b_q8 >= (0.1 * 256.0) as u32 - 1);
    }

    #[test]
    fn below_low_window_behaves_like_reno() {
        let mut cc = hs(10, 5); // in congestion avoidance, small window
        let v = test_view(0, 0);
        // One window of ACKs grows exactly one MSS, like Reno.
        for _ in 0..10 {
            cc.on_ack(&v, MSS as u64);
        }
        assert_eq!(cc.cwnd(), 11 * MSS as u64);
        // And the decrease is the standard half.
        let v = test_view(0, 20 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::FastRetransmit);
        assert_eq!(cc.ssthresh(), 10 * MSS as u64);
    }

    #[test]
    fn large_windows_grow_superlinearly_and_back_off_gently() {
        let mut cc = hs(1000, 5);
        assert!(!cc.in_slow_start());
        let ai = row(&cc.window().reno).ai;
        assert!(ai > 5, "a(1000) should be well above standard, got {ai}");
        let b = row(&cc.window().reno).b_q8 as f64 / 256.0;
        assert!(b < 0.4 && b > 0.1, "b(1000) should be relaxed, got {b}");
        // One window of per-segment ACKs grows ≈ ai segments.
        let before = cc.cwnd();
        for _ in 0..1000 {
            cc.on_ack(&test_view(0, 0), MSS as u64);
        }
        let grown = (cc.cwnd() - before) / MSS as u64;
        assert!(
            grown >= ai as u64 - 1 && grown <= ai as u64 + 2,
            "grew {grown} segments, table says {ai}"
        );
        // Loss drops by b(w) of the flight, not half.
        let flight = 1000 * MSS as u64;
        cc.on_congestion(&test_view(0, flight), CongestionEvent::FastRetransmit);
        let kept = cc.ssthresh() as f64 / flight as f64;
        assert!(
            (kept - (1.0 - b)).abs() < 0.01,
            "kept {kept}, expected {}",
            1.0 - b
        );
    }

    #[test]
    fn slow_start_is_standard() {
        let mut cc = hs(2, u64::MAX / 2 / MSS as u64);
        let v = test_view(0, 0);
        assert!(cc.in_slow_start());
        cc.on_ack(&v, MSS as u64);
        cc.on_ack(&v, MSS as u64);
        assert_eq!(cc.cwnd(), 4 * MSS as u64);
    }

    #[test]
    fn timeout_restarts_from_one_segment() {
        let mut cc = hs(500, 5);
        let v = test_view(0, 400 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::Timeout);
        assert_eq!(cc.cwnd(), MSS as u64);
        assert!(cc.ssthresh() > 200 * MSS as u64, "gentle backoff");
        assert!(cc.in_slow_start());
    }

    #[test]
    fn stall_responses_mirror_reno_dispositions() {
        let mut cc = hs(500, 5);
        let v = test_view(0, 400 * MSS as u64);
        cc.on_congestion(&v, CongestionEvent::LocalStall);
        assert_eq!(cc.cwnd(), cc.ssthresh());
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(
            crate::registry::find("highspeed").unwrap().algo,
            "highspeed-tcp"
        );
    }
}
