//! Results extracted from a finished run: per-flow Web100 snapshots, event
//! logs and series, plus world-level link/NIC accounting.

use rss_host::NicStats;
use rss_sim::{jain_fairness, QueueCounters};
use rss_web100::{Series, Web100Vars};
use serde::{Deserialize, Serialize};

/// Everything measured about one flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowReport {
    /// Connection index.
    pub conn: u32,
    /// Congestion-control label ("standard", "restricted", "limited").
    pub algo: String,
    /// Final Web100 counter snapshot.
    pub vars: Web100Vars,
    /// Mean goodput over the run, bits/s (acked bytes).
    pub goodput_bps: f64,
    /// Goodput as a fraction of the path rate.
    pub utilization: f64,
    /// When a bounded transfer finished, seconds.
    pub completed_at_s: Option<f64>,
    /// Timestamps of send-stall signals, seconds (Figure 1's x-values).
    pub stall_times_s: Vec<f64>,
    /// Timestamps of all congestion signals, seconds.
    pub congestion_times_s: Vec<f64>,
    /// Congestion-window samples `(t, cwnd_bytes)`, read as `(t_s,
    /// cwnd_bytes)` pairs and rendered as runs (`rss_web100::Series`).
    pub cwnd_series: Series,
    /// Cumulative acked bytes `(t, bytes)`, read as `(t_s, bytes)` pairs
    /// and rendered as runs.
    pub acked_series: Series,
    /// Bytes delivered in order to the receiving application.
    pub receiver_delivered_bytes: u64,
    /// Fully duplicate segments seen by the receiver (spurious retransmits).
    pub receiver_dup_segments: u64,
    /// Segments the receiver buffered out of order (reordering/loss marker).
    pub receiver_ooo_segments: u64,
    /// RTO episodes: runs of consecutive retransmission timeouts with no
    /// intervening forward progress, counted once per run (an outage
    /// spanning five backed-off RTOs is one episode; `vars.timeouts` counts
    /// all five).
    pub rto_episodes: u64,
    /// Deepest exponential-backoff shift reached (0 = the RTO never backed
    /// off; 3 = the RTO climbed to 8× its base during the worst episode).
    pub rto_max_backoff: u32,
    /// Worst post-outage time-to-recover, seconds: the longest span from an
    /// episode's first timeout to the ACK of new data that ended it. `None`
    /// when no episode completed during the run.
    pub rto_max_recovery_s: Option<f64>,
}

impl FlowReport {
    /// The cumulative send-stall staircase sampled every `step_s` over
    /// `[0, end_s]` — exactly the series Figure 1 plots.
    pub fn stall_staircase(&self, end_s: f64, step_s: f64) -> Vec<(f64, u64)> {
        assert!(step_s > 0.0);
        let mut out = Vec::new();
        let mut t = 0.0;
        while t <= end_s + 1e-9 {
            let count = self.stall_times_s.iter().filter(|&&x| x <= t).count() as u64;
            out.push((t, count));
            t += step_s;
        }
        out
    }

    /// The per-flow goodput timeseries: append the mean goodput (bits/s) over
    /// each consecutive `window_s`-second window of `[0, end_s]` to `out`,
    /// one value per window ending at `window_s`, `2·window_s`, … up to
    /// `end_s`, derived from the cumulative acked series in one pass. This is
    /// the series the fairness pass compares across flows, filling one row
    /// of a preallocated flows × windows table.
    pub fn goodput_series_fill(&self, window_s: f64, end_s: f64, out: &mut Vec<f64>) {
        assert!(window_s > 0.0, "window must be positive");
        let mut acked = self.acked_series.iter().peekable();
        let mut cum = 0.0; // cumulative acked bytes at the current window end
        let mut cum_prev = 0.0; // ... at the previous window end
        let mut t = window_s;
        while t <= end_s + 1e-9 {
            while let Some((_, bytes)) = acked.next_if(|&(ts, _)| ts <= t) {
                cum = bytes;
            }
            out.push((cum - cum_prev) * 8.0 / window_s);
            cum_prev = cum;
            t += window_s;
        }
    }

    /// Goodput over a window `[a_s, b_s]`, bits/s, from the acked series.
    pub fn goodput_in_window_bps(&self, a_s: f64, b_s: f64) -> f64 {
        assert!(b_s > a_s);
        let at = |t: f64| -> f64 {
            // Step function over cumulative acked bytes.
            let mut v = 0.0;
            for (ts, bytes) in self.acked_series.iter() {
                if ts <= t {
                    v = bytes;
                } else {
                    break;
                }
            }
            v
        };
        (at(b_s) - at(a_s)) * 8.0 / (b_s - a_s)
    }
}

/// The lookahead-window walk of a run with `shards`, in counts (see
/// [`rss_sim::ShardStats`]). All three are functions of the scenario alone:
/// identical at every domain count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Lookahead windows the domains ran.
    pub windows_run: u64,
    /// Grid windows skipped because no domain had an event in them.
    pub windows_skipped: u64,
    /// Flights from one unit into another, whether they crossed a domain
    /// boundary as envelopes or stayed inside one engine.
    pub envelopes: u64,
}

/// Results of one complete run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Simulated run length, seconds.
    pub duration_s: f64,
    /// RNG seed used.
    pub seed: u64,
    /// Path line rate, bits/s.
    pub path_rate_bps: u64,
    /// Per-flow results.
    pub flows: Vec<FlowReport>,
    /// IFQ-depth samples of the first sender host `(t_s, packets)`.
    pub sender_ifq_series: Vec<(f64, f64)>,
    /// NIC counters of the first sender host.
    pub sender_nic: NicStats,
    /// Fraction of the run the first sender's NIC was transmitting.
    pub sender_nic_utilization: f64,
    /// Packets dropped at router queues.
    pub router_queue_drops: u64,
    /// RED probabilistic (early) drops at the bottleneck, both directions.
    /// Zero on a drop-tail bottleneck.
    pub router_red_early_drops: u64,
    /// RED forced drops (average queue above the hard threshold, or the
    /// physical queue full), both directions. Zero on a drop-tail bottleneck.
    pub router_red_forced_drops: u64,
    /// CE marks applied by the bottleneck instead of drops (RED with ECN
    /// only), both directions.
    pub router_ecn_marks: u64,
    /// Bottleneck queue-depth samples `(t_s, packets)` in the forward
    /// (data) direction, on the same grid as `sender_ifq_series`.
    pub bottleneck_queue_series: Vec<(f64, f64)>,
    /// Cross-traffic bytes offered by the sources.
    pub cross_offered_bytes: u64,
    /// Cross-traffic bytes delivered to sinks.
    pub cross_delivered_bytes: u64,
    /// Discrete events the engine dispatched during the run (the simulator
    /// perf harness divides these by wall time for events/sec).
    pub events_processed: u64,
    /// Executor diagnostic, outside the invariance contract: event-queue
    /// counters (wheel hit rate, cancels, far-heap migrations) of
    /// the one engine that ran a scenario without `shards`. `None` with
    /// `shards`: where an event lands in a calendar wheel depends on what
    /// else its domain's engine holds, so the counters differ by domain
    /// count, and reports across shard counts are byte-identical.
    pub engine: Option<QueueCounters>,
    /// Executor diagnostic, outside the invariance contract: the window
    /// walk of a run with `shards` (the same at every shard count); `None`
    /// without, where one engine runs to the horizon and walks no windows.
    pub shard: Option<ShardCounters>,
    /// `Some(reason)` when the run was ended by a watchdog (`max_sim_time`
    /// or `max_events`) rather than running its course — the explicit
    /// "this run was cut short" marker for un-completable scenarios.
    pub truncated: Option<String>,
}

impl RunReport {
    /// Render the full report as JSON (via the workspace serde's
    /// `Serialize`). Everything the run measured — per-flow Web100
    /// snapshots, series, NIC and router accounting — lands in one
    /// machine-readable artifact.
    pub fn to_json(&self) -> String {
        // Reserved once from what the report holds: a pair of the sampling
        // grid renders in ~10 bytes, a flow series in about five times its
        // packed steps (`Series::packed_bytes`), and a flow's fixed part
        // (the Web100 block) in under 1 KiB. An estimate, not a bound —
        // short costs a regrowth, long costs untouched pages.
        let pairs = self.sender_ifq_series.len() + self.bottleneck_queue_series.len();
        let packed: usize = self
            .flows
            .iter()
            .map(|f| f.cwnd_series.packed_bytes() + f.acked_series.packed_bytes())
            .sum();
        let mut out =
            String::with_capacity(12 * pairs + 5 * packed + 1024 * (self.flows.len() + 1));
        self.serialize_json(&mut out);
        out
    }

    /// Parse a report back from its [`Self::to_json`] rendering. Numbers
    /// round-trip exactly (the serializer emits shortest-round-trip floats
    /// and full-width integers), so `from_json(to_json(r))` re-serializes
    /// byte-identically.
    pub fn from_json(text: &str) -> Result<Self, serde::de::Error> {
        serde::from_json_str(text)
    }

    /// Combined goodput of all flows, bits/s.
    pub fn total_goodput_bps(&self) -> f64 {
        self.flows.iter().map(|f| f.goodput_bps).sum()
    }

    /// Jain fairness index over per-flow goodputs.
    pub fn fairness(&self) -> f64 {
        let allocs: Vec<f64> = self.flows.iter().map(|f| f.goodput_bps).collect();
        jain_fairness(&allocs)
    }

    /// Total send-stalls across flows.
    pub fn total_stalls(&self) -> u64 {
        self.flows.iter().map(|f| f.vars.send_stall).sum()
    }

    /// Cross-traffic delivery ratio (1.0 when nothing was lost).
    pub fn cross_delivery_ratio(&self) -> f64 {
        if self.cross_offered_bytes == 0 {
            1.0
        } else {
            self.cross_delivered_bytes as f64 / self.cross_offered_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rss_sim::SimTime;

    fn flow(stalls: Vec<f64>, goodput: f64) -> FlowReport {
        FlowReport {
            conn: 0,
            algo: "standard".into(),
            vars: Web100Vars {
                send_stall: stalls.len() as u64,
                ..Default::default()
            },
            goodput_bps: goodput,
            utilization: 0.5,
            completed_at_s: None,
            stall_times_s: stalls,
            congestion_times_s: vec![],
            cwnd_series: Series::new(),
            acked_series: [(0, 0), (1, 125_000), (2, 375_000)]
                .map(|(t, v)| (SimTime::from_secs(t), v))
                .into_iter()
                .collect(),
            receiver_delivered_bytes: 0,
            receiver_dup_segments: 0,
            receiver_ooo_segments: 0,
            rto_episodes: 0,
            rto_max_backoff: 0,
            rto_max_recovery_s: None,
        }
    }

    #[test]
    fn staircase_counts_cumulatively() {
        let f = flow(vec![0.5, 1.5, 1.6, 7.0], 1e6);
        let st = f.stall_staircase(8.0, 1.0);
        let counts: Vec<u64> = st.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![0, 1, 3, 3, 3, 3, 3, 4, 4]);
    }

    #[test]
    fn windowed_goodput() {
        let f = flow(vec![], 1e6);
        // Between t=1 and t=2: 250 kB = 2 Mbit/s.
        let g = f.goodput_in_window_bps(1.0, 2.0);
        assert!((g - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn goodput_series_matches_the_window_function() {
        let f = flow(vec![], 1e6);
        let mut series = Vec::new();
        f.goodput_series_fill(1.0, 3.0, &mut series);
        assert_eq!(series.len(), 3);
        for (&g, t) in series.iter().zip([1.0, 2.0, 3.0]) {
            let want = f.goodput_in_window_bps(t - 1.0, t);
            assert!((g - want).abs() < 1e-6, "window ending {t}: {g} vs {want}");
        }
        // Past the last sample the cumulative series is flat: zero goodput.
        assert_eq!(series[2], 0.0);
    }

    #[test]
    fn run_report_aggregates() {
        let r = RunReport {
            duration_s: 10.0,
            seed: 1,
            path_rate_bps: 100_000_000,
            flows: vec![flow(vec![1.0], 40e6), flow(vec![], 60e6)],
            sender_ifq_series: vec![],
            sender_nic: NicStats::default(),
            sender_nic_utilization: 0.9,
            router_queue_drops: 0,
            router_red_early_drops: 0,
            router_red_forced_drops: 0,
            router_ecn_marks: 0,
            bottleneck_queue_series: vec![],
            cross_offered_bytes: 1000,
            cross_delivered_bytes: 900,
            events_processed: 12345,
            engine: None,
            shard: None,
            truncated: None,
        };
        assert!((r.total_goodput_bps() - 100e6).abs() < 1.0);
        assert_eq!(r.total_stalls(), 1);
        assert!((r.cross_delivery_ratio() - 0.9).abs() < 1e-12);
        let fairness = r.fairness();
        assert!(fairness > 0.9 && fairness < 1.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let r = RunReport {
            duration_s: 10.0,
            seed: 1,
            path_rate_bps: 100_000_000,
            flows: vec![flow(vec![1.5], 40e6)],
            sender_ifq_series: vec![(0.0, 0.0), (0.5, 3.0)],
            sender_nic: NicStats::default(),
            sender_nic_utilization: 0.9,
            router_queue_drops: 2,
            router_red_early_drops: 1,
            router_red_forced_drops: 0,
            router_ecn_marks: 4,
            // A negative zero and a 9-decimal (nanosecond) timestamp: the
            // two renderings a hand-rolled float writer gets wrong first.
            bottleneck_queue_series: vec![(-0.0, 0.0), (24.987654321, 17.0)],
            cross_offered_bytes: 0,
            cross_delivered_bytes: 0,
            events_processed: 777,
            engine: Some(QueueCounters {
                scheduled: 10,
                pops: 9,
                placed_wheel: 8,
                placed_far: 2,
                far_migrations: 1,
                cancelled: 1,
            }),
            shard: None,
            truncated: None,
        };
        let json = r.to_json();
        // Spot-check shape: top-level object, nested flow array, series
        // tuples as arrays, counters present.
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"events_processed\":777"), "{json}");
        assert!(json.contains("\"flows\":[{"), "{json}");
        assert!(json.contains("\"algo\":\"standard\""), "{json}");
        assert!(
            json.contains("\"sender_ifq_series\":[[0,0],[0.5,3]]"),
            "{json}"
        );
        assert!(json.contains("\"stall_times_s\":[1.5]"), "{json}");
        assert!(
            json.contains("\"bottleneck_queue_series\":[[-0,0],[24.987654321,17]]"),
            "{json}"
        );
        // Engine queue counters ride along in full when present.
        assert!(json.contains("\"engine\":{\"scheduled\":10"), "{json}");
        assert!(json.contains("\"cancelled\":1}"), "{json}");
        // Every flow field of the Web100 block must be present exactly once.
        assert_eq!(json.matches("\"send_stall\":").count(), 1, "{json}");
    }
}
