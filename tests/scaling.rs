//! The simulator is dimensionally consistent: multiply every rate by `k`
//! and divide every time by `k`, and a run is the same run with its clock
//! scaled. Each registry variant but BBR runs on the paper's path (2 s,
//! loss 0 and 10^-4) at `k` = 1, 10 and 1/10, Restricted re-tuned for the
//! scaled rate by `RssConfig::tuned_for` (its gains are times). Every
//! counter and byte count of the report must be equal, and every recorded
//! time and the cwnd and acked series equal on whole nanoseconds once
//! scaled back.
//! The check has no model: a ns / µs / s or bit / byte slip anywhere in the
//! stack shows as a difference here.
//!
//! What does not scale, and why:
//! - **BBR** (`bbr.rs`) holds absolute times: the 10 s `FILTER_WINDOW` of
//!   its max-bandwidth filter and the 100 ms fallback RTT. It is left out.
//! - **Hybrid** (`hybrid.rs`) clamps its delay threshold to 4–16 ms and
//!   spaces its ACK train at 2 ms, absolute times too. It scales here only
//!   because on this path it never exits slow start early; a path where it
//!   does would not scale.
//! - **Event counts** are not compared: the number of stale RTO-timer pops
//!   depends on nanosecond rounding of the RTT estimator, which scaling does
//!   not preserve, though the behaviour it drives is the same.

use restricted_slow_start::{
    cc_registry, run, CcAlgorithm, FlowReport, FlowSpec, HostConfig, PathSpec, RssConfig,
    RunReport, ScalableConfig, Scenario, SimDuration, SimTime, SslConfig, TcpConfig,
};

/// A scale factor `num / den`: rates are multiplied by it, times divided.
#[derive(Debug, Clone, Copy)]
struct K {
    num: u64,
    den: u64,
}

impl K {
    fn rate(self, bps: u64) -> u64 {
        assert_eq!(
            bps * self.num % self.den,
            0,
            "{bps} bit/s does not scale by {self:?}"
        );
        bps * self.num / self.den
    }

    fn ns(self, ns: u64) -> u64 {
        assert_eq!(
            ns * self.den % self.num,
            0,
            "{ns} ns does not scale by {self:?}"
        );
        ns * self.den / self.num
    }

    fn dur(self, d: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.ns(d.as_nanos()))
    }

    fn at(self, t: SimTime) -> SimTime {
        SimTime::from_nanos(self.ns(t.as_nanos()))
    }
}

/// `sc` with every rate multiplied by `k` and every time divided by it.
/// Each struct is taken apart field by field, so a field added to any of
/// them does not compile here until it is scaled or said to need none.
fn scaled(sc: &Scenario, k: K) -> Scenario {
    let Scenario {
        path,
        host,
        tcp,
        flows,
        cross,
        duration,
        seed,
        shared_sender_host,
        sample_interval,
        web100_stride,
        stop_when_complete,
        queue,
        shards,
        haul_impairment,
        access_impairment,
        max_sim_time,
        max_events,
    } = sc.clone();
    // Outage, flap and jitter times and a cross source's rate and means
    // would scale too; no path here has them, so they are not written yet.
    assert!(cross.is_empty() && haul_impairment.is_none() && access_impairment.is_none());
    let PathSpec {
        rate_bps,
        rtt,
        router_queue_pkts,
        loss_prob,
        access_rate_bps,
        access_delay,
    } = path;
    let HostConfig {
        nic_rate_bps,
        txqueuelen,
        mtu,
    } = host;
    let TcpConfig {
        mss,
        header_bytes,
        initial_cwnd_mss,
        initial_ssthresh,
        rwnd,
        min_rto,
        max_rto,
        stall_response,
        stall_retry,
        dupack_threshold,
    } = tcp;
    let path = PathSpec {
        rate_bps: k.rate(rate_bps),
        rtt: k.dur(rtt),
        // Packets, bytes and probabilities are per packet: no clock in them.
        router_queue_pkts,
        loss_prob,
        access_rate_bps: access_rate_bps.map(|r| k.rate(r)),
        access_delay: k.dur(access_delay),
    };
    let flows = flows
        .into_iter()
        .map(|FlowSpec { algo, bytes, start }| FlowSpec {
            algo: match algo {
                // The gains are times: Ti and Td follow the packet time.
                CcAlgorithm::Restricted(cfg) => CcAlgorithm::Restricted(RssConfig {
                    gains: RssConfig::tuned_for(path.rate_bps, mtu).gains,
                    ..cfg
                }),
                other => other,
            },
            bytes,
            start: k.at(start),
        })
        .collect();
    Scenario {
        path,
        host: HostConfig {
            nic_rate_bps: k.rate(nic_rate_bps),
            txqueuelen,
            mtu,
        },
        tcp: TcpConfig {
            mss,
            header_bytes,
            initial_cwnd_mss,
            initial_ssthresh,
            rwnd,
            min_rto: k.dur(min_rto),
            max_rto: k.dur(max_rto),
            stall_response,
            stall_retry: k.dur(stall_retry),
            dupack_threshold,
        },
        flows,
        cross,
        duration: k.dur(duration),
        seed,
        shared_sender_host,
        sample_interval: k.dur(sample_interval),
        web100_stride,
        stop_when_complete,
        // RED's thresholds are packets and its weight per packet; the idle
        // time it ages the average by is derived from the path rate.
        queue,
        shards,
        haul_impairment,
        access_impairment,
        max_sim_time: max_sim_time.map(|t| k.dur(t)),
        // An event budget is a count: scaling does not keep event counts.
        max_events,
    }
}

/// The integer fields of a flow's report, with every time in nanoseconds
/// multiplied by `mult`. The RTT and RTO fields are whole microseconds,
/// truncated, so they are equal only to within a microsecond once scaled,
/// and are left out.
fn flow_facts(f: &FlowReport, mult: u64) -> Vec<u64> {
    let v = &f.vars;
    let ns = |t: f64| (t * 1e9).round() as u64 * mult;
    let mut facts = vec![
        v.pkts_out,
        v.data_bytes_out,
        v.pkts_retrans,
        v.bytes_retrans,
        v.ack_pkts_in,
        v.thru_bytes_acked,
        v.congestion_signals,
        v.fast_retran,
        v.timeouts,
        v.send_stall,
        v.ecn_echoes,
        v.dup_acks_in,
        v.cur_cwnd,
        v.max_cwnd,
        v.cur_ssthresh,
        v.cur_rwin_rcvd,
        v.slow_start_episodes,
        v.cong_avoid_episodes,
        v.snd_lim_time_rwin_ns * mult,
        v.snd_lim_time_cwnd_ns * mult,
        v.snd_lim_time_sender_ns * mult,
        f.receiver_delivered_bytes,
        f.receiver_dup_segments,
        f.receiver_ooo_segments,
        f.rto_episodes,
        u64::from(f.rto_max_backoff),
    ];
    facts.extend(f.completed_at_s.map(ns));
    facts.extend(f.stall_times_s.iter().copied().map(ns));
    facts.extend(f.congestion_times_s.iter().copied().map(ns));
    for series in [&f.cwnd_series, &f.acked_series] {
        for (t, value) in series.samples() {
            facts.extend([t.as_nanos() * mult, value]);
        }
    }
    facts
}

/// Assert that `got`, a run of `sc` scaled by `k`, is the run `want`.
fn assert_same_run(what: &str, want: &RunReport, got: &RunReport, k: K) {
    let run_facts = |r: &RunReport| {
        [
            r.sender_nic.tx_pkts,
            r.sender_nic.tx_bytes,
            r.sender_nic.stalls,
            r.router_queue_drops,
            r.router_red_early_drops,
            r.router_red_forced_drops,
            r.router_ecn_marks,
        ]
    };
    assert_eq!(run_facts(want), run_facts(got), "{what}: run counters");
    assert_eq!(want.flows.len(), got.flows.len());
    for (a, b) in want.flows.iter().zip(&got.flows) {
        assert!(
            flow_facts(a, k.den) == flow_facts(b, k.num),
            "{what}: flow {} differs",
            a.conn
        );
    }
}

/// Every registry variant's default arm, in registry order.
fn variants() -> Vec<CcAlgorithm> {
    let algos = vec![
        CcAlgorithm::Reno,
        CcAlgorithm::Restricted(RssConfig::tuned_for(100_000_000, 1500)),
        CcAlgorithm::Limited { max_ssthresh: None },
        CcAlgorithm::Ssthreshless(SslConfig::default()),
        CcAlgorithm::HighSpeed,
        CcAlgorithm::Scalable(ScalableConfig::default()),
        CcAlgorithm::Bbr,
        CcAlgorithm::Relentless,
        CcAlgorithm::Hybrid,
    ];
    let names: Vec<&str> = cc_registry::variants().iter().map(|v| v.name).collect();
    let labels: Vec<&str> = algos.iter().map(|a| a.label()).collect();
    assert_eq!(labels, names, "one arm per registry row");
    algos
}

#[test]
fn a_run_scales_with_its_clock() {
    for algo in variants() {
        if matches!(algo, CcAlgorithm::Bbr) {
            continue; // absolute time constants (module docs)
        }
        for loss in [0.0, 1e-4] {
            let mut sc = Scenario::paper_testbed(algo).with_duration(SimDuration::from_secs(2));
            sc.path.loss_prob = loss;
            let base = run(&sc);
            assert!(base.flows[0].vars.thru_bytes_acked > 0);
            for k in [K { num: 10, den: 1 }, K { num: 1, den: 10 }] {
                let what = format!("{} at loss {loss}, k = {}/{}", algo.label(), k.num, k.den);
                assert_same_run(&what, &base, &run(&scaled(&sc, k)), k);
            }
        }
    }
}
