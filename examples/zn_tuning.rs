//! The §3 tuning procedure end to end. The paper tuned by hand: raise the
//! proportional gain on the live host until the loop oscillates, read off
//! `Kc` and `Tc`, apply `Kp = 0.33 Kc, Ti = 0.5 Tc, Td = 0.33 Tc`. This
//! example does it twice:
//!
//! 1. **On the full simulated stack**, as the paper did: a proportional-only
//!    restricted controller drives a real slow-start on the testbed for a
//!    ladder of gains. With per-ACK actuation clamped to ±1 segment the loop
//!    is *unconditionally stable* — the clamp acts as a rate limiter, so no
//!    finite ultimate gain exists on the saturated plant.
//! 2. **On the small-signal plant**, which is how the gains are actually
//!    derived: the IFQ integrates the controller's per-ACK increments with
//!    one ACK interval of dead time; the automated search recovers `Kc` and
//!    `Tc`, checked against the analytic `Kc = π/(2Kθ)`, `Tc = 4θ`, and the
//!    resulting controller is validated on the testbed.
//!
//! `tests/paper_claims.rs::zn_recovers_analytic_ultimate_gain` asserts both.
//!
//! ```text
//! cargo run --release --example zn_tuning
//! ```

use rss_core::plot::ascii_table;
use rss_core::{
    find_ultimate_gain, run, run_many, CcAlgorithm, DeadTimePlant, IntegratorPlant, PidGains,
    RssConfig, Scenario, ZnSearchConfig,
};

/// Part 1: proportional-only gains on the full stack.
fn gain_ladder() {
    let ladder = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0];
    let scenarios: Vec<Scenario> = ladder
        .iter()
        .map(|&kp| {
            let cfg = RssConfig::with_gains(PidGains::p(kp));
            Scenario::paper_testbed(CcAlgorithm::Restricted(cfg))
        })
        .collect();
    let rows: Vec<Vec<String>> = ladder
        .iter()
        .zip(run_many(&scenarios).0)
        .map(|(kp, (r, _))| {
            let r = r.expect("scenario runs");
            // Steady-state IFQ depth: its spread is the oscillation amplitude.
            let tail: Vec<f64> = r
                .sender_ifq_series
                .iter()
                .filter(|&&(t, _)| t > 10.0)
                .map(|&(_, v)| v)
                .collect();
            let n = tail.len().max(1) as f64;
            let mean = tail.iter().sum::<f64>() / n;
            let var = tail.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            vec![
                format!("{kp}"),
                r.flows[0].vars.send_stall.to_string(),
                format!("{:.2}", r.flows[0].goodput_bps / 1e6),
                format!("{mean:.1}"),
                format!("{:.2}", var.sqrt()),
            ]
        })
        .collect();
    println!("P-only gain ladder on the full stack (no instability: the ±1 seg/ACK clamp rate-limits the loop)");
    println!(
        "{}",
        ascii_table(
            &["Kp", "stalls", "goodput Mbit/s", "IFQ mean", "IFQ sd"],
            &rows
        )
    );
}

fn main() {
    gain_ladder();

    // Small-signal model of the sending host's IFQ on the paper's path:
    // the queue integrates the controller's per-ACK window increments at the
    // ACK rate (100 Mbit/s / 1500 B = 8333 ACKs/s) and the controller
    // observes the result one packet time later (dead time θ = 120 µs).
    let ack_rate = 100_000_000.0 / (8.0 * 1500.0);
    let theta = 1.0 / ack_rate;
    let mut plant = DeadTimePlant::new(IntegratorPlant::new(ack_rate, 0.0), theta);

    println!("Ziegler–Nichols ultimate-gain experiment (automated §3 procedure)");
    println!("plant: IFQ ≈ integrator(K = {ack_rate:.1} pkt/s) + dead time θ = {theta:.6} s\n");

    let cfg = ZnSearchConfig {
        kp_lo: 1e-4,
        kp_hi: 1e2,
        dt: theta / 20.0,
        sim_time: theta * 4000.0,
        setpoint: 90.0,
        tolerance: 1e-3,
        sustained_band: 0.05,
    };
    let zn = find_ultimate_gain(&mut plant, &cfg).expect("no ultimate gain found");
    let analytic_kc = std::f64::consts::FRAC_PI_2 / (ack_rate * theta);
    println!(
        "measured:  Kc = {:.4}   Tc = {:.6} s   ({} closed-loop experiments)",
        zn.kc, zn.tc, zn.experiments
    );
    println!(
        "analytic:  Kc = {:.4}   Tc = {:.6} s   (π/(2Kθ), 4θ)\n",
        analytic_kc,
        4.0 * theta
    );

    let gains = zn.paper_gains();
    println!("paper rule (Kp = 0.33 Kc, Ti = 0.5 Tc, Td = 0.33 Tc):");
    println!(
        "  Kp = {:.4}   Ti = {:.6} s   Td = {:.6} s\n",
        gains.kp, gains.ti, gains.td
    );

    // Validate on the full simulated testbed.
    let sc = Scenario::paper_testbed(CcAlgorithm::Restricted(RssConfig::with_gains(gains)));
    let report = run(&sc);
    let f = &report.flows[0];
    println!("validation on the §4 testbed (25 s):");
    println!(
        "  goodput {:.2} Mbit/s   send-stalls {}   NIC utilization {:.1}%",
        f.goodput_bps / 1e6,
        f.vars.send_stall,
        report.sender_nic_utilization * 100.0
    );

    let baseline = run(&Scenario::paper_testbed_standard());
    println!(
        "  improvement over standard TCP: {:+.1}%  (paper: ≈ +40%)",
        (f.goodput_bps / baseline.flows[0].goodput_bps - 1.0) * 100.0
    );
}
