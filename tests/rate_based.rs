//! Rate-based congestion control against its analytical models.
//!
//! Two variants shipped through the registry make quantitative promises:
//!
//! * **Relentless** (Mathis, arXiv:1102.3270) decreases the window by
//!   exactly the segments lost, so under random per-segment loss `p` it
//!   equilibrates at `W = 1/p` segments and the idealized goodput is
//!   `MSS / (p · RTT)`. The closed form assumes perfect (SACK-like)
//!   recovery; this sender's NewReno machinery repairs one hole per RTT,
//!   and at the Relentless operating point — one loss per RTT, by
//!   construction — the connection lives in perpetual recovery, which
//!   sustains about half the idealized rate. The tests below therefore pin
//!   the model two ways: the absolute level within a stated tolerance
//!   (`RECOVERY_EFFICIENCY` ± `TOLERANCE`), and the `1/p` scaling law,
//!   which is insensitive to the recovery-granularity factor.
//!
//! * **BBR-style probing** promises to fill a long fat pipe without
//!   needing loss as a signal, and to do so without paying for it in
//!   retransmissions. On the `bbr_lfn` golden path (200 Mbit/s × 120 ms,
//!   3 MB BDP, a mis-cached 64 KiB initial ssthresh) standard TCP falls
//!   out of slow-start at 64 KiB and crawls; the probe measures the
//!   bottleneck and paces at it.

use restricted_slow_start::{run, CcAlgorithm, Scenario, SimDuration};

const MSS: u64 = 1448;

/// Fraction of the idealized `MSS/(p·RTT)` the NewReno-based recovery
/// machinery sustains in perpetual recovery (measured 0.37–0.59 across
/// loss rates and seeds 1–8; the cells below use seed 1, which draws 0.39
/// and 0.37; see the module docs).
const RECOVERY_EFFICIENCY: f64 = 0.50;
const TOLERANCE: f64 = 0.15;

/// A Relentless flow under random loss `p`, started at its equilibrium
/// (`initial_ssthresh = MSS/p` so slow-start hands over right at `W*`,
/// removing the `1/p`-RTT convergence transient from the measurement).
fn relentless_under_loss(p: f64) -> Scenario {
    let w_star = (1.0 / p) as u64 * MSS;
    let mut sc = Scenario::paper_testbed(CcAlgorithm::Relentless)
        .with_rate(200_000_000)
        .with_rtt(SimDuration::from_millis(15))
        .with_txqueuelen(1000)
        .with_duration(SimDuration::from_secs(20))
        .with_seed(1);
    sc.path.loss_prob = p;
    sc.tcp.initial_ssthresh = Some(w_star);
    sc.tcp.rwnd = 64 * 1024 * 1024;
    sc.web100_stride = 64;
    sc
}

fn model_goodput_bps(p: f64, rtt_s: f64) -> f64 {
    MSS as f64 * 8.0 / (p * rtt_s)
}

/// Goodput lands within the stated tolerance of the closed-form model,
/// scaled by the documented recovery-efficiency factor.
#[test]
fn relentless_goodput_tracks_the_closed_form_model() {
    let p = 0.005;
    let r = run(&relentless_under_loss(p));
    let goodput = r.flows[0].goodput_bps;
    let model = model_goodput_bps(p, 0.015);
    let ratio = goodput / model;
    assert!(
        (ratio - RECOVERY_EFFICIENCY).abs() <= TOLERANCE,
        "goodput {:.1} Mbit/s is {ratio:.2}x the {:.1} Mbit/s closed form; \
         expected {RECOVERY_EFFICIENCY} +/- {TOLERANCE}",
        goodput / 1e6,
        model / 1e6,
    );
}

/// The `1/p` scaling law: halving the loss rate roughly doubles goodput.
/// This is the model's load-bearing prediction and does not depend on the
/// absolute recovery-efficiency factor.
#[test]
fn relentless_goodput_scales_inversely_with_loss_rate() {
    let lo = run(&relentless_under_loss(0.005)).flows[0].goodput_bps;
    let hi = run(&relentless_under_loss(0.01)).flows[0].goodput_bps;
    let scaling = lo / hi;
    assert!(
        (1.3..=2.2).contains(&scaling),
        "goodput(p=0.005) / goodput(p=0.01) = {scaling:.2}, expected ~2 \
         (1/p scaling)"
    );
}

/// Relentless beats an AIMD window that halves on every one of the same
/// loss events — the scheme's reason to exist.
#[test]
fn relentless_beats_standard_tcp_under_the_same_loss() {
    let p = 0.005;
    let relentless = run(&relentless_under_loss(p)).flows[0].goodput_bps;
    let mut sc = relentless_under_loss(p);
    sc.flows[0].algo = CcAlgorithm::Reno;
    let standard = run(&sc).flows[0].goodput_bps;
    assert!(
        relentless >= 3.0 * standard,
        "relentless {:.1} Mbit/s vs standard {:.1} Mbit/s: expected >= 3x",
        relentless / 1e6,
        standard / 1e6
    );
}

/// The `bbr_lfn` golden scenario, at the Scenario level: 200 Mbit/s ×
/// 120 ms, 32 MiB transfer, the classic mis-cached 64 KiB initial
/// ssthresh.
fn lfn(algo: CcAlgorithm) -> Scenario {
    let mut sc = Scenario::paper_testbed(algo)
        .with_rate(200_000_000)
        .with_rtt(SimDuration::from_millis(120))
        .with_txqueuelen(1000)
        .with_duration(SimDuration::from_secs(60))
        .with_seed(1);
    sc.flows[0].bytes = Some(32 * 1024 * 1024);
    sc.stop_when_complete = true;
    sc.tcp.initial_ssthresh = Some(65536);
    sc.tcp.rwnd = 64 * 1024 * 1024;
    sc.web100_stride = 64;
    sc
}

/// BBR finishes the LFN transfer much faster than standard TCP without
/// buying the speedup with retransmissions (the issue's loss gate: BBR's
/// loss count must stay within ~2x standard's).
#[test]
fn bbr_beats_standard_on_the_lfn_without_extra_loss() {
    let bbr = run(&lfn(CcAlgorithm::Bbr));
    let std_tcp = run(&lfn(CcAlgorithm::Reno));
    let (b, s) = (&bbr.flows[0], &std_tcp.flows[0]);
    assert!(
        b.goodput_bps > 2.0 * s.goodput_bps,
        "bbr {:.1} Mbit/s vs standard {:.1} Mbit/s",
        b.goodput_bps / 1e6,
        s.goodput_bps / 1e6
    );
    // Loss gate: 2x standard's retransmissions, plus a one-burst allowance
    // so the bound stays meaningful when standard takes zero losses.
    assert!(
        b.vars.pkts_retrans <= 2 * s.vars.pkts_retrans + 4,
        "bbr retransmitted {} pkts vs standard's {}",
        b.vars.pkts_retrans,
        s.vars.pkts_retrans
    );
    // Both transfers must actually complete inside the horizon.
    assert!(b.completed_at_s.is_some() && s.completed_at_s.is_some());
}
