//! The paper's claims — and the findings of the extension experiments —
//! asserted against the scenario files the golden-gated CI matrix runs.
//!
//! Every test loads its `scenarios/<file>.json`, so the finding is pinned on
//! the very runs whose CSV `scenarios/golden/` byte-gates. Three kinds of arm
//! cannot be said in a scenario file and are built here instead: proportional
//! -only gains (`Ti = ∞` has no JSON number), the growth clamp lifted
//! (`RssConfig::max_increment_segments` is not a spec field), and the
//! Ziegler–Nichols gain ladder (P-only again).

use restricted_slow_start::{
    find_ultimate_gain, run_many, CcAlgorithm, DeadTimePlant, ExpandedRun, FairnessReport,
    IntegratorPlant, PidGains, RssConfig, RunReport, Scenario, ScenarioSpec, ZnSearchConfig,
};
use std::path::Path;

/// One executed run of a scenario file.
struct Ran {
    label: String,
    scenario: Scenario,
    report: RunReport,
}

impl Ran {
    fn goodput(&self) -> f64 {
        self.report.flows[0].goodput_bps
    }

    fn stalls(&self) -> u64 {
        self.report.flows[0].vars.send_stall
    }
}

/// Load `scenarios/<file>`, expand it, and execute the runs `keep` accepts.
fn run_file(file: &str, keep: impl Fn(&ExpandedRun) -> bool) -> (ScenarioSpec, Vec<Ran>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(file);
    let spec = ScenarioSpec::load(&path).expect("scenario file loads");
    let runs: Vec<ExpandedRun> = spec
        .expand()
        .expect("scenario file validates")
        .into_iter()
        .filter(keep)
        .collect();
    let scenarios: Vec<Scenario> = runs.iter().map(|r| r.scenario.clone()).collect();
    let ran = runs
        .into_iter()
        .zip(run_many(&scenarios))
        .map(|(er, report)| Ran {
            label: er.label,
            scenario: er.scenario,
            report,
        })
        .collect();
    (spec, ran)
}

/// The mean of flow 0's sampled IFQ depth over the run's second half is
/// within 1.5 packets of the controller's `set_point`.
///
/// The mean sits up to one packet above the set point, by construction. The
/// controller reads the IFQ when an ACK arrives, before the segment that
/// ACK releases is queued (`World::deliver` takes the snapshot, then
/// pumps), and its integral term holds that reading at the set point. Each
/// ACK then queues one segment and each NIC completion takes one off. On
/// the paper's path the ACK arrives 12.48 µs after a completion: the 60 ms
/// of propagation and the routers' two data serializations are whole
/// 120 µs packet times, and the ACK's own three 52-byte serializations at
/// 100 Mbit/s add 3 × 4.16 µs. So the queue is one packet above the reading
/// except in those 12.48 µs of every 120. The 10 ms sample grid is 83⅓
/// packet times, so its samples fall at three phases 40 µs apart, and at
/// most one of them can land in that gap. The mean is therefore the set
/// point plus 1 or plus 2/3.
fn assert_ifq_holds_set_point(report: &RunReport, set_point: f64) {
    let half = report.duration_s / 2.0;
    let tail: Vec<f64> = report
        .sender_ifq_series
        .iter()
        .filter(|&&(t, _)| t > half)
        .map(|&(_, v)| v)
        .collect();
    assert!(!tail.is_empty(), "no IFQ samples in the second half");
    let mean = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        (mean - set_point).abs() <= 1.5,
        "IFQ mean {mean} over the second half, set point {set_point}"
    );
}

/// The run labelled `label` (at interface-queue depth `txq`, for swept files).
fn cell<'a>(ran: &'a [Ran], label: &str, txq: u32) -> &'a Ran {
    ran.iter()
        .find(|r| r.label == label && r.scenario.host.txqueuelen == txq)
        .unwrap_or_else(|| panic!("no run `{label}` at txqueuelen {txq}"))
}

/// A hand-built paper-testbed run of a restricted controller.
fn restricted(cfg: RssConfig) -> Scenario {
    Scenario::paper_testbed(CcAlgorithm::Restricted(cfg))
}

/// First 0.5 s window boundary at which the flow's windowed goodput reaches
/// `target_bps`.
fn time_to_rate(report: &RunReport, target_bps: f64) -> Option<f64> {
    let window = 0.5;
    let mut t = window;
    while t <= report.duration_s {
        if report.flows[0].goodput_in_window_bps(t - window, t) >= target_bps {
            return Some(t);
        }
        t += window;
    }
    None
}

/// Figure 1: the standard stack accumulates send-stalls as a staircase; the
/// proposed scheme stays flat at zero.
#[test]
fn figure1_shape_reproduces() {
    let (_, ran) = run_file("figure1.json", |_| true);
    let (std, rss) = (
        cell(&ran, "standard_cwr", 100),
        cell(&ran, "restricted", 100),
    );
    let final_count = |r: &Ran| {
        let stairs = r.report.flows[0].stall_staircase(25.0, 0.5);
        // The figure's resolution: 0.5 s steps over the 25 s window.
        assert_eq!(stairs.len(), 51, "{}", r.label);
        stairs.last().expect("non-empty staircase").1
    };
    assert!(final_count(std) >= 1, "standard staircase never climbed");
    assert_eq!(final_count(rss), 0, "restricted staircase left zero");
    assert!(final_count(cell(&ran, "standard_restart", 100)) >= 1);
    // Restricted must also beat standard on throughput while at it.
    assert!(rss.goodput() > std.goodput());
}

/// §4: "our scheme is able to achieve 40 % improvement in throughput".
#[test]
fn headline_improvement_in_papers_ballpark() {
    let (_, ran) = run_file("headline.json", |_| true);
    let (std, rss) = (cell(&ran, "standard", 100), cell(&ran, "restricted", 100));
    let imp = rss.goodput() / std.goodput() - 1.0;
    // The paper reports +40%; the simulated testbed gives the same
    // direction and magnitude class. Accept anything from +20% up —
    // the invariant is "restricted wins decisively", not the digit.
    assert!(imp > 0.20, "improvement {imp} too small");
    assert!(imp < 2.0, "improvement {imp} implausibly large");
    // Mechanism check: the win comes from eliminating stalls.
    assert_eq!(rss.stalls(), 0);
    assert!(std.stalls() >= 1);

    // The ssthreshless comparison row: the delay probe leaves
    // slow-start near the pipe size instead of blowing through the
    // IFQ, so it clearly beats the standard baseline. (Reno congestion
    // avoidance later re-walks into the 100-packet IFQ like any Reno
    // flow on this testbed, so a handful of CA-regime stalls are
    // expected; restricted — which feeds back on the IFQ itself —
    // stays the testbed champion. SSthreshless's own showcase is the
    // mis-set-ssthresh LFN scenario.)
    let (_, variants) = run_file("slow_start_variants.json", |r| {
        r.label == "ssthreshless" && r.scenario.host.txqueuelen == 100
    });
    let probe = cell(&variants, "ssthreshless", 100);
    let ssl = probe.goodput() / std.goodput() - 1.0;
    assert!(ssl > 0.20, "ssthreshless improvement {ssl} too small");
    assert!(
        probe.stalls() <= std.stalls() + 2,
        "probe must not stall more than the baseline's own CA regime"
    );
}

/// §2's rejected alternative, "increasing the size of the soft components":
/// standard TCP needs a very deep IFQ to stop stalling; restricted delivers
/// at every depth.
#[test]
fn txqueuelen_sweep_shows_papers_tradeoff() {
    let (spec, ran) = run_file("slow_start_variants.json", |r| {
        r.label == "standard" || r.label == "restricted"
    });
    let depths = spec.sweep.and_then(|s| s.txqueuelen).expect("swept depths");
    assert_eq!(depths.len(), 6);
    let improvement =
        |q| cell(&ran, "restricted", q).goodput() / cell(&ran, "standard", q).goodput() - 1.0;
    // Restricted never stalls at any queue depth, and it holds the IFQ at
    // its set point, 0.9 × txqueuelen, plus the offset
    // `assert_ifq_holds_set_point` explains.
    for &q in &depths {
        let rss = cell(&ran, "restricted", q);
        assert_eq!(rss.stalls(), 0, "txqueuelen {q}");
        assert_ifq_holds_set_point(&rss.report, 0.9 * q as f64);
    }
    // At the paper's txqueuelen = 100 the improvement is large.
    assert!(improvement(100) > 0.2, "{}", improvement(100));
    // A very deep queue rescues standard TCP (the paper's rejected
    // memory-for-throughput trade): the gap narrows.
    assert!(
        improvement(1000) < improvement(100),
        "deep IFQ should narrow the gap: {} vs {}",
        improvement(1000),
        improvement(100)
    );
}

/// §3's tuning procedure: the automated ultimate-gain search on the
/// small-signal IFQ plant recovers the analytic `Kc = π/(2Kθ)`, `Tc = 4θ`,
/// the paper-rule gains derived from it hold the testbed stall-free, and a
/// proportional-only ladder on the full stack never goes unstable — with
/// per-ACK actuation clamped to ±1 segment the saturated loop has no finite
/// ultimate gain.
#[test]
fn zn_recovers_analytic_ultimate_gain() {
    // K = ACK rate on the 100 Mbit/s path with 1500 B packets, θ = one
    // packet time.
    let ack_rate = 100_000_000.0 / (8.0 * 1500.0);
    let theta = 1.0 / ack_rate;
    let mut plant = DeadTimePlant::new(IntegratorPlant::new(ack_rate, 0.0), theta);
    let cfg = ZnSearchConfig {
        kp_lo: 1e-4,
        kp_hi: 1e2,
        dt: theta / 20.0,
        sim_time: theta * 4000.0,
        setpoint: 90.0,
        tolerance: 1e-3,
        sustained_band: 0.05,
    };
    let zn = find_ultimate_gain(&mut plant, &cfg).expect("ultimate gain search failed");
    let kc_analytic = std::f64::consts::FRAC_PI_2 / (ack_rate * theta);
    let tc_analytic = 4.0 * theta;
    assert!(
        (zn.kc - kc_analytic).abs() / kc_analytic < 0.10,
        "kc {} vs analytic {kc_analytic}",
        zn.kc
    );
    assert!(
        (zn.tc - tc_analytic).abs() / tc_analytic < 0.10,
        "tc {} vs analytic {tc_analytic}",
        zn.tc
    );

    let ladder = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0];
    let mut scenarios: Vec<Scenario> = ladder
        .iter()
        .map(|&kp| restricted(RssConfig::with_gains(PidGains::p(kp))))
        .collect();
    scenarios.push(restricted(RssConfig::with_gains(zn.paper_gains())));
    let mut reports = run_many(&scenarios);
    // Derived gains must hold the testbed stall-free.
    let validation = reports.pop().expect("validation run");
    assert_eq!(validation.flows[0].vars.send_stall, 0);
    assert!(validation.flows[0].goodput_bps > 90e6);
    // The saturated full-stack loop never went unstable on the ladder.
    for (kp, r) in ladder.iter().zip(&reports) {
        assert_eq!(r.flows[0].vars.send_stall, 0, "Kp = {kp}");
    }
}

/// The controller ablation's headline finding: on the (integrator-like) IFQ
/// plant the saturating ±1-segment clamp — the *restriction* — does the
/// stabilising, not the gains. Wide ranges of gains behave identically with
/// it in place; lift it and the raw controller bursts straight through the
/// queue.
#[test]
fn clamp_is_load_bearing_and_tuned_arms_behave() {
    let (_, ran) = run_file("pid_ablation.json", |_| true);
    let paper = cell(&ran, "pid_paper_rule", 100);
    assert_eq!(paper.stalls(), 0);
    assert!(paper.goodput() > 90e6, "{}", paper.goodput());
    assert!(time_to_rate(&paper.report, 0.9 * 100e6).is_some());

    // Kc from the small-signal plant (see `zn_recovers_analytic_ultimate_gain`).
    let kc = std::f64::consts::FRAC_PI_2;
    let reports = run_many(&[
        restricted(RssConfig::with_gains(PidGains::p(0.5 * kc))),
        restricted(RssConfig::with_gains(PidGains::p(50.0 * kc))),
        restricted(RssConfig {
            max_increment_segments: 64.0,
            ..RssConfig::with_gains(PidGains::p(50.0 * kc))
        }),
    ]);
    let [p_half_kc, kp_100x, unclamped_kp_100x] = &reports[..] else {
        panic!("three hand-built arms");
    };
    // Finding 1: with the clamp in place, even grossly detuned gains
    // behave — the saturating actuator does the stabilising.
    for (label, flow) in [
        ("P (0.5 Kc)", &p_half_kc.flows[0]),
        ("detuned: Kp 100x", &kp_100x.flows[0]),
        (
            "detuned: Ti 500x (sluggish I)",
            &cell(&ran, "detuned_ti_500x", 100).report.flows[0],
        ),
    ] {
        assert_eq!(flow.vars.send_stall, 0, "clamped arm stalled: {label}");
        assert!(flow.goodput_bps > 90e6, "clamped arm slow: {label}");
    }
    // Finding 2: lift the clamp and the raw controller is exposed —
    // aggressive gains burst through the queue and stall.
    assert!(
        unclamped_kp_100x.flows[0].vars.send_stall > 0,
        "unclamped aggressive arm should stall"
    );
}

/// RFC 3742 Limited Slow-Start moderates slow-start open-loop; the paper
/// closes a feedback loop on the saturating resource. The open-loop cap must
/// be hand-matched to the queue, the closed loop adapts.
#[test]
fn closed_loop_beats_open_loop_cap() {
    let depths = [50u32, 100, 200];
    let (_, ran) = run_file("slow_start_variants.json", |r| {
        r.label != "ssthreshless" && depths.contains(&r.scenario.host.txqueuelen)
    });
    // Restricted: stall-free at every queue depth.
    for q in depths {
        assert_eq!(cell(&ran, "restricted", q).stalls(), 0, "q={q}");
    }
    // At the shallow 50-packet IFQ the RFC 3742 default cap
    // (100 segments) is too high — it still overflows the queue, while
    // the feedback loop adapts.
    let (lss_50, rss_50) = (cell(&ran, "limited", 50), cell(&ran, "restricted", 50));
    assert!(
        lss_50.stalls() > 0,
        "open-loop cap unexpectedly avoided stalls"
    );
    assert!(
        rss_50.goodput() > lss_50.goodput(),
        "{} vs {}",
        rss_50.goodput(),
        lss_50.goodput()
    );
    // Everyone beats or matches standard.
    for q in depths {
        assert!(
            cell(&ran, "restricted", q).goodput() > cell(&ran, "standard", q).goodput() * 1.05,
            "q={q}"
        );
    }
}

/// Several flows sharing one sending host: restricted flows collectively
/// avoid most stalls and beat standard TCP's aggregate, but freeze at
/// unequal shares when nothing perturbs them.
#[test]
fn restricted_dominates_standard_on_shared_host() {
    let (_, ran) = run_file("fairness_shared_host.json", |_| true);
    for n in [2usize, 4, 8] {
        let std = &cell(&ran, &format!("standard_{n}"), 100).report;
        let rss = &cell(&ran, &format!("restricted_{n}"), 100).report;
        assert_eq!((std.flows.len(), rss.flows.len()), (n, n));
        assert!(
            rss.total_stalls() <= std.total_stalls(),
            "restricted should stall no more than standard at n={n}: {} vs {}",
            rss.total_stalls(),
            std.total_stalls()
        );
        assert!(
            rss.total_goodput_bps() >= std.total_goodput_bps(),
            "restricted aggregate should win at n={n}"
        );
    }
    // Pinned finding: a PID-governed slow-start has no AIMD dynamics, so
    // two undisturbed flows freeze at unequal shares.
    let rss2 = &cell(&ran, "restricted_2", 100).report;
    assert!(
        rss2.fairness() < 0.9,
        "expected the documented fairness limitation at n=2, got Jain {}",
        rss2.fairness()
    );
    assert_eq!(rss2.total_stalls(), 0);
}

/// Pairs of different registry variants on one network bottleneck: AIMD
/// pairs converge, MIMD against AIMD does not.
#[test]
fn cross_variant_pairs_pin_the_convergence_findings() {
    let (spec, ran) = run_file("fairness_shared_bottleneck.json", |_| true);
    let def = spec.fairness.as_ref().expect("fairness block present");
    assert_eq!(ran.len(), 4);
    let fairness =
        |label| FairnessReport::from_run(&cell(&ran, label, 100).report, def.window_s(), def.eps());
    // A symmetric AIMD pair is the fairness baseline: near-perfect index
    // and a measured convergence time.
    let base = fairness("standard_pair");
    assert!(base.jain > 0.99, "jain {}", base.jain);
    assert!(base.convergence_s.is_some(), "AIMD must converge");
    // MIMD against AIMD captures the bottleneck: the index drops well
    // below the baseline and scalable out-carries standard.
    let mixed = fairness("standard_vs_scalable");
    assert!(
        mixed.jain < base.jain - 0.05,
        "expected the documented MIMD capture: {} vs {}",
        mixed.jain,
        base.jain
    );
    let (std_v, sc_v) = (&mixed.variants[0], &mixed.variants[1]);
    assert_eq!(std_v.algo, "standard");
    assert_eq!(sc_v.algo, "scalable");
    assert!(
        sc_v.goodput_bps > std_v.goodput_bps,
        "scalable should out-carry standard: {} vs {}",
        sc_v.goodput_bps,
        std_v.goodput_bps
    );
    // Every pair keeps the shared link busy — the fairness question is
    // about the split, not about wasting the bottleneck.
    for r in &ran {
        assert!(
            r.report.total_goodput_bps() > 30e6,
            "{}: aggregate collapsed to {}",
            r.label,
            r.report.total_goodput_bps()
        );
    }
}

/// When the bottleneck moves into the network the IFQ rarely fills, so
/// restricted slow-start degenerates to standard TCP: it fixes *host*
/// congestion, not network congestion.
#[test]
fn network_bottleneck_shows_boundary_of_contribution() {
    let (_, ran) = run_file("network_bottleneck_boundary.json", |r| {
        r.label == "standard" || r.label == "restricted"
    });
    let (std, rss) = (cell(&ran, "standard", 100), cell(&ran, "restricted", 100));
    // With a 10x-faster NIC the IFQ almost never fills: stalls are rare
    // (only post-recovery bursts), and RSS behaves like standard TCP.
    assert!(std.stalls() <= 5, "too many stalls for a fast NIC");
    assert!(rss.stalls() <= 5, "too many stalls for a fast NIC");
    // Both stacks live off loss signals here.
    let v = &std.report.flows[0].vars;
    assert!(
        v.fast_retran + v.timeouts > 0,
        "expected network loss events"
    );
    let ratio = rss.goodput() / std.goodput();
    assert!(
        (0.7..1.3).contains(&ratio),
        "RSS should degenerate to standard here: ratio {ratio}"
    );
}

/// GridFTP-style striping of one transfer over N parallel streams from one
/// host multiplies slow-start burstiness into one IFQ.
#[test]
fn restricted_striping_completes_faster_with_fewer_stalls() {
    let (spec, ran) = run_file("gridftp_parallel.json", |_| true);
    let completion = |r: &Ran| {
        r.report
            .flows
            .iter()
            .map(|f| f.completed_at_s)
            .collect::<Option<Vec<f64>>>()
            .map(|ts| ts.into_iter().fold(0.0f64, f64::max))
            .unwrap_or_else(|| panic!("transfer did not finish: {}", r.label))
    };
    let at = |label: &str, n: u32| {
        ran.iter()
            .find(|r| r.label == label && r.scenario.flows.len() == n as usize)
            .unwrap_or_else(|| panic!("no `{label}` run with {n} streams"))
    };
    for n in spec.sweep.and_then(|s| s.streams).expect("swept streams") {
        let (std, rss) = (at("standard", n), at("restricted", n));
        assert!(
            rss.report.total_stalls() <= std.report.total_stalls(),
            "restricted should stall no more than standard at n={n}"
        );
        // At high stream counts striping itself masks slow-start damage
        // (that is why GridFTP stripes); parity is the expected result
        // there, a decisive win at low counts. On this file's 100 MiB
        // transfer the start-up ramp is a large share of the run and
        // "parity" at 8 streams is 10.68 s against 9.94 s, hence the 10 %.
        let (ts, tr) = (completion(std), completion(rss));
        assert!(
            tr <= ts * 1.10,
            "restricted should be at least at parity at n={n}: {tr} vs {ts}"
        );
    }
    // One and two streams are the paper's headline regime: stall-free and
    // decisively faster.
    for n in [1, 2] {
        let (std, rss) = (at("standard", n), at("restricted", n));
        assert_eq!(rss.report.total_stalls(), 0, "n={n}");
        assert!(completion(rss) < 0.9 * completion(std), "n={n}");
    }
}
