//! The variant registry: one row of data per congestion-control scheme.
//!
//! Each [`VariantInfo`] row is the display metadata of one [`CcAlgorithm`]
//! arm — the short name reports and scenario files use, its summary, its
//! parameters and where it comes from. [`variants`] lists the rows in
//! presentation order for `rss list --variants` and the generated gallery
//! ([`markdown_gallery`]).
//!
//! A variant is a policy arm and a registry row. Its rules are a
//! slow-start or an avoidance policy of the window engine (or BBR, the
//! engine's other arm); three exhaustive `match`es over [`CcAlgorithm`]
//! fail to compile until a new arm is handled: [`CcAlgorithm::info`] picks
//! the row (and with it [`CcAlgorithm::label`]), [`validate`] holds the
//! parameter rules, and [`CcEngine::new`](crate::CcEngine::new) names the
//! arm's (slow-start, avoidance) pair.

use crate::{CcAlgorithm, CcParams};
use std::fmt;

/// An invalid congestion-control parameterisation, caught at validation
/// time (before any simulation runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcError {
    /// Human-readable description.
    pub msg: String,
}

impl CcError {
    fn new(msg: impl Into<String>) -> Self {
        CcError { msg: msg.into() }
    }
}

impl fmt::Display for CcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for CcError {}

/// Static description of one scenario-file parameter of a variant — the
/// rows of the generated variant gallery (`docs/VARIANTS.md`).
#[derive(Debug, Clone, Copy)]
pub struct ParamInfo {
    /// JSON field name inside the variant's `cc` object.
    pub name: &'static str,
    /// Default when the field is omitted.
    pub default: &'static str,
    /// Valid range (what [`validate`] enforces).
    pub range: &'static str,
    /// What the knob does.
    pub doc: &'static str,
}

/// Static description of one congestion-control variant.
#[derive(Debug, Clone, Copy)]
pub struct VariantInfo {
    /// Registry key and report label (e.g. `"standard"`).
    pub name: &'static str,
    /// The algorithm name the gallery prints beside the registry key.
    pub algo: &'static str,
    /// One-line summary of the scheme.
    pub summary: &'static str,
    /// Parameter summary (what the scenario-file arm accepts).
    pub params: &'static str,
    /// Per-parameter metadata: JSON name, default, valid range, doc line.
    pub params_detail: &'static [ParamInfo],
    /// Where the scheme comes from.
    pub reference: &'static str,
    /// The scenario file (or experiment command) that shows the variant in
    /// the regime it targets.
    pub showcase: &'static str,
}

/// The registry table, one row per [`CcAlgorithm`] arm in the order
/// [`CcAlgorithm::info`] indexes it. Order is presentation order (`rss list
/// --variants`, docs): the paper's comparison set first, extensions after.
pub(crate) static VARIANTS: [VariantInfo; 9] = [
    VariantInfo {
        name: "standard",
        algo: "reno",
        summary: "RFC 5681 slow-start + AIMD (NewReno recovery), the Linux 2.4.19 baseline",
        params: "none",
        params_detail: &[],
        reference: "RFC 5681",
        showcase: "scenarios/quickstart.json",
    },
    VariantInfo {
        name: "restricted",
        algo: "restricted-slow-start",
        summary: "slow-start growth paced by a PID controller holding the IFQ at a set point",
        params: "tuning (ForPath|PerStream|Gains), setpoint_frac (0,1]",
        params_detail: &[
            ParamInfo {
                name: "tuning",
                default: "\"ForPath\"",
                range: "ForPath | PerStream | Gains{kp, ti, td}",
                doc: "how the PID gains are chosen (Ziegler\u{2013}Nichols per path or per stream, or explicit)",
            },
            ParamInfo {
                name: "setpoint_frac",
                default: "0.9",
                range: "(0, 1]",
                doc: "IFQ set point as a fraction of txqueuelen",
            },
        ],
        reference: "Allcock et al., CLUSTER 2005",
        showcase: "scenarios/headline.json",
    },
    VariantInfo {
        name: "limited",
        algo: "limited-slow-start",
        summary: "slow-start growth capped open-loop past max_ssthresh",
        params: "max_ssthresh bytes (default 100 segments)",
        params_detail: &[ParamInfo {
            name: "max_ssthresh",
            default: "100 \u{b7} MSS bytes",
            range: "\u{2265} 2 \u{b7} MSS bytes",
            doc: "window above which slow-start growth is capped to max_ssthresh/2 segments per RTT",
        }],
        reference: "RFC 3742",
        showcase: "scenarios/slow_start_variants.json",
    },
    VariantInfo {
        name: "ssthreshless",
        algo: "ssthreshless-start",
        summary: "delay-probed slow-start with no ssthresh estimate; exits at the measured BDP",
        params: "gamma_segments > 0 (default 8)",
        params_detail: &[ParamInfo {
            name: "gamma_segments",
            default: "8",
            range: "> 0, finite",
            doc: "backlog (segments) at which the delay probe stops doubling, then confirms a standing queue of 2\u{b7}\u{3b3}",
        }],
        reference: "arXiv:1401.7146",
        showcase: "scenarios/ssthreshless_lfn.json",
    },
    VariantInfo {
        name: "highspeed",
        algo: "highspeed-tcp",
        summary: "RFC 3649 a(w)/b(w) response tables: faster growth, gentler backoff at large windows",
        params: "none (the RFC's constants)",
        params_detail: &[],
        reference: "RFC 3649; arXiv:1705.08929",
        showcase: "scenarios/fairness_staggered.json",
    },
    VariantInfo {
        name: "scalable",
        algo: "scalable-tcp",
        summary: "Kelly's MIMD: grow by acked/ai_cnt per ACK, fixed 1/8 backoff on congestion",
        params: "ai_cnt \u{2265} 1 (default 100)",
        params_detail: &[ParamInfo {
            name: "ai_cnt",
            default: "100",
            range: "\u{2265} 1",
            doc: "increase denominator: the window grows by newly_acked/ai_cnt bytes per ACK",
        }],
        reference: "Kelly, CCR 2003; arXiv:1705.08929",
        showcase: "scenarios/fairness_shared_bottleneck.json",
    },
    VariantInfo {
        name: "bbr",
        algo: "bbr-probe",
        summary: "rate-based probe: paced at the windowed max-bandwidth/min-RTT estimate \
                  through startup/drain/probe-bw gain cycling",
        params: "none (the reference gain constants)",
        params_detail: &[],
        reference: "Cardwell et al., ACM Queue 14(5) 2016 (BBR)",
        showcase: "scenarios/bbr_lfn.json",
    },
    VariantInfo {
        name: "relentless",
        algo: "relentless-cc",
        summary: "Mathis' Relentless: the window decreases by exactly the segments lost, \
                  giving the closed-form steady state W = 1/p",
        params: "none",
        params_detail: &[],
        reference: "arXiv:1102.3270",
        showcase: "scenarios/relentless_lfn.json",
    },
    VariantInfo {
        name: "hybrid",
        algo: "hybrid-start",
        summary: "HyStart: standard TCP whose slow-start exits early on ACK-train or \
                  delay-increase evidence, before the first loss",
        params: "none (the reference thresholds)",
        params_detail: &[],
        reference: "Ha & Rhee, Computer Networks 55(9) 2011 (HyStart)",
        showcase: "scenarios/bbr_lfn.json",
    },
];

/// All registered variants, in presentation order.
pub fn variants() -> &'static [VariantInfo] {
    &VARIANTS
}

/// Render the registry as the variant-gallery markdown document
/// (`docs/VARIANTS.md`). Generated, never hand-edited: `rss list --variants
/// --markdown` emits exactly this string and CI diffs the committed file
/// against it, so the gallery cannot drift from the table.
pub fn markdown_gallery() -> String {
    let mut out = String::from(
        "# Congestion-control variant gallery\n\n\
         <!-- GENERATED FILE — do not edit. Regenerate with:\n     \
         cargo run --release --bin rss -- list --variants --markdown > docs/VARIANTS.md -->\n\n\
         Every congestion-control variant a scenario file's `cc` field accepts,\n\
         straight from the `rss_cc::registry` table (`rss list --variants`).\n\
         Each is one window engine with a slow-start and an avoidance policy,\n\
         or BBR. Adding a variant is a `SlowStart` or `Avoidance` arm and a\n\
         registry row (a `CcAlgorithm` arm, its `CcDef` mirror and a\n\
         scenario); the compiler then asks for the row, its rules and its\n\
         policy pair, and the `rss-cc` crate docs walk through it.\n",
    );
    for i in &VARIANTS {
        out.push_str(&format!(
            "\n## `{}` \u{2014} {}\n\n{}\n\n- **Reference:** {}\n- **Showcase:** `{}`\n",
            i.name, i.algo, i.summary, i.reference, i.showcase
        ));
        if i.params_detail.is_empty() {
            out.push_str("- **Parameters:** none\n");
        } else {
            out.push_str(
                "\n| parameter | default | valid range | meaning |\n\
                 |-----------|---------|-------------|---------|\n",
            );
            // Literal `|` in cell text (e.g. variant alternatives) must not
            // split the table cell.
            let esc = |s: &str| s.replace('|', "\\|");
            for p in i.params_detail {
                out.push_str(&format!(
                    "| `{}` | {} | {} | {} |\n",
                    p.name,
                    esc(p.default),
                    esc(p.range),
                    esc(p.doc)
                ));
            }
        }
    }
    out
}

/// Look a variant up by its registry name.
pub fn find(name: &str) -> Option<&'static VariantInfo> {
    VARIANTS.iter().find(|v| v.name == name)
}

/// Check a parameterisation against the rules every variant shares and its
/// own: everything a constructor would otherwise assert on, so whatever
/// passes here builds through [`CcEngine::new`](crate::CcEngine::new).
pub fn validate(algo: &CcAlgorithm, params: &CcParams) -> Result<(), CcError> {
    if params.mss == 0 {
        return Err(CcError::new("mss must be positive, got 0"));
    }
    if params.initial_cwnd == 0 {
        return Err(CcError::new(
            "initial_cwnd must be positive, got 0 (a zero window can never open)",
        ));
    }
    match algo {
        CcAlgorithm::Restricted(cfg) => {
            if !(cfg.setpoint_frac > 0.0 && cfg.setpoint_frac <= 1.0) {
                return Err(CcError::new(format!(
                    "setpoint_frac must be in (0, 1], got {}",
                    cfg.setpoint_frac
                )));
            }
            if !(cfg.max_increment_segments.is_finite() && cfg.max_increment_segments > 0.0) {
                return Err(CcError::new(
                    "max_increment_segments must be positive and finite",
                ));
            }
            if !(cfg.max_decrement_segments.is_finite() && cfg.max_decrement_segments >= 0.0) {
                return Err(CcError::new(
                    "max_decrement_segments must be non-negative and finite",
                ));
            }
            if !cfg.gains.is_valid() {
                return Err(CcError::new(format!(
                    "PID gains must satisfy Kp \u{2265} 0 and Td \u{2265} 0 (finite) and \
                     Ti > 0 (infinity allowed), got kp={} ti={} td={}",
                    cfg.gains.kp, cfg.gains.ti, cfg.gains.td
                )));
            }
            Ok(())
        }
        CcAlgorithm::Limited {
            max_ssthresh: Some(t),
        } if *t < 2 * params.mss as u64 => Err(CcError::new(format!(
            "max_ssthresh must be at least two segments ({} bytes at MSS {}), got {t}",
            2 * params.mss as u64,
            params.mss
        ))),
        CcAlgorithm::Ssthreshless(cfg)
            if !(cfg.gamma_segments.is_finite() && cfg.gamma_segments > 0.0) =>
        {
            Err(CcError::new(format!(
                "gamma_segments must be positive and finite, got {}",
                cfg.gamma_segments
            )))
        }
        CcAlgorithm::Scalable(cfg) if cfg.ai_cnt == 0 => {
            Err(CcError::new("ai_cnt must be at least 1, got 0"))
        }
        CcAlgorithm::Reno
        | CcAlgorithm::Limited { .. }
        | CcAlgorithm::Ssthreshless(_)
        | CcAlgorithm::HighSpeed
        | CcAlgorithm::Scalable(_)
        | CcAlgorithm::Bbr
        | CcAlgorithm::Relentless
        | CcAlgorithm::Hybrid => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::{Avoidance, SlowStart};
    use crate::{CcEngine, PacingDecision, RssConfig, ScalableConfig, SslConfig};

    fn params() -> CcParams {
        CcParams {
            initial_cwnd: 2 * 1448,
            initial_ssthresh: u64::MAX / 2,
            mss: 1448,
        }
    }

    #[test]
    fn every_variant_is_listed_once_and_buildable() {
        let names: Vec<_> = variants().iter().map(|v| v.name).collect();
        assert_eq!(
            names,
            [
                "standard",
                "restricted",
                "limited",
                "ssthreshless",
                "highspeed",
                "scalable",
                "bbr",
                "relentless",
                "hybrid"
            ],
            "presentation order is part of the contract"
        );
        // One probe per arm, in row order, with the (slow-start, avoidance)
        // pair it builds, or `None` for BBR.
        let probes = [
            (CcAlgorithm::Reno, Some(("standard", "reno"))),
            (
                CcAlgorithm::Restricted(RssConfig::tuned()),
                Some(("restricted", "reno")),
            ),
            (
                CcAlgorithm::Limited { max_ssthresh: None },
                Some(("limited", "reno")),
            ),
            (
                CcAlgorithm::Ssthreshless(SslConfig::default()),
                Some(("ssthreshless", "reno")),
            ),
            (CcAlgorithm::HighSpeed, Some(("standard", "highspeed"))),
            (
                CcAlgorithm::Scalable(ScalableConfig::default()),
                Some(("standard", "scalable")),
            ),
            (CcAlgorithm::Bbr, None),
            (CcAlgorithm::Relentless, Some(("standard", "relentless"))),
            (CcAlgorithm::Hybrid, Some(("hybrid", "reno"))),
        ];
        assert_eq!(probes.len(), variants().len(), "one probe per registry row");
        for ((algo, pair), row) in probes.iter().zip(variants()) {
            assert!(std::ptr::eq(algo.info(), row), "{algo:?} reads another row");
            assert_eq!(algo.label(), row.name);
            let built = CcEngine::new(algo, &params()).expect("defaults validate");
            assert_eq!(policies(&built), *pair, "row `{}`", row.name);
            assert!(built.in_slow_start(), "row `{}`", row.name);
            if pair.is_some() {
                // Window rows open at the initial window and never pace.
                assert_eq!(built.cwnd(), params().initial_cwnd, "row `{}`", row.name);
                assert_eq!(
                    built.pacing(),
                    PacingDecision::Unpaced,
                    "row `{}`",
                    row.name
                );
            }
        }
    }

    /// The engine's (slow-start, avoidance) policy names; `None` for BBR.
    fn policies(cc: &CcEngine) -> Option<(&'static str, &'static str)> {
        let CcEngine::Window(w) = cc else {
            return None;
        };
        let start = match w.start {
            SlowStart::Standard => "standard",
            SlowStart::Limited { .. } => "limited",
            SlowStart::Hybrid(_) => "hybrid",
            SlowStart::Restricted(_) => "restricted",
            SlowStart::Ssthreshless(_) => "ssthreshless",
        };
        let avoid = match w.avoid {
            Avoidance::Reno => "reno",
            Avoidance::HighSpeed { .. } => "highspeed",
            Avoidance::Scalable { .. } => "scalable",
            Avoidance::Relentless(_) => "relentless",
        };
        Some((start, avoid))
    }

    #[test]
    fn find_by_name() {
        assert_eq!(find("ssthreshless").unwrap().algo, "ssthreshless-start");
        assert!(find("vegas").is_none());
    }

    #[test]
    fn restricted_validation_rejects_bad_setpoint_and_gains() {
        let mut cfg = RssConfig::tuned();
        cfg.setpoint_frac = 1.5;
        let err = validate(&CcAlgorithm::Restricted(cfg), &params()).unwrap_err();
        assert!(err.msg.contains("setpoint_frac"), "{}", err.msg);

        // Everything PidGains::is_valid rejects must fail validation —
        // these used to pass the weaker finiteness check and then panic in
        // PidController::new mid-run.
        for (kp, ti, td) in [
            (f64::NAN, 1.0, 0.1),
            (-1.0, 1.0, 0.1),
            (1.0, 0.0, 0.1),
            (1.0, -2.0, 0.1),
            (1.0, 1.0, -0.1),
            (1.0, 1.0, f64::INFINITY),
        ] {
            let mut cfg = RssConfig::tuned();
            cfg.gains = rss_control::PidGains::pid(kp, ti, td);
            let err = validate(&CcAlgorithm::Restricted(cfg), &params()).unwrap_err();
            assert!(err.msg.contains("PID gains"), "{kp}/{ti}/{td}: {}", err.msg);
        }
        // Ti = ∞ (integral term disabled) stays legal.
        let mut cfg = RssConfig::tuned();
        cfg.gains = rss_control::PidGains::pid(1.0, f64::INFINITY, 0.1);
        assert!(validate(&CcAlgorithm::Restricted(cfg), &params()).is_ok());
    }

    #[test]
    fn limited_validation_rejects_sub_two_segment_thresholds() {
        // Anything below the constructor's 2·MSS floor must be caught at
        // validation time, not by the assert at build time.
        for t in [0u64, 1, 1000, 2 * 1448 - 1] {
            let algo = CcAlgorithm::Limited {
                max_ssthresh: Some(t),
            };
            let err = validate(&algo, &params()).unwrap_err();
            assert!(err.msg.contains("max_ssthresh"), "{t}: {}", err.msg);
            assert!(
                CcEngine::new(&algo, &params()).is_err(),
                "{t} must not reach the constructor"
            );
        }
        for algo in [
            CcAlgorithm::Limited { max_ssthresh: None },
            CcAlgorithm::Limited {
                max_ssthresh: Some(2 * 1448),
            },
        ] {
            assert!(validate(&algo, &params()).is_ok());
        }
    }

    #[test]
    fn ssthreshless_validation_rejects_nonpositive_gamma() {
        for gamma in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let algo = CcAlgorithm::Ssthreshless(SslConfig {
                gamma_segments: gamma,
            });
            let err = validate(&algo, &params()).unwrap_err();
            assert!(err.msg.contains("gamma_segments"), "{}", err.msg);
        }
    }

    #[test]
    fn scalable_validation_rejects_zero_ai_cnt() {
        let err = validate(
            &CcAlgorithm::Scalable(ScalableConfig { ai_cnt: 0 }),
            &params(),
        )
        .unwrap_err();
        assert!(err.msg.contains("ai_cnt"), "{}", err.msg);
        assert!(validate(
            &CcAlgorithm::Scalable(ScalableConfig { ai_cnt: 1 }),
            &params()
        )
        .is_ok());
    }

    #[test]
    fn markdown_gallery_covers_every_row_and_every_parameter() {
        let md = markdown_gallery();
        assert!(md.starts_with("# Congestion-control variant gallery"));
        assert!(md.contains("GENERATED FILE"), "must mark itself generated");
        for v in variants() {
            assert!(
                md.contains(&format!("## `{}` \u{2014} {}", v.name, v.algo)),
                "missing section for {}",
                v.name
            );
            assert!(md.contains(v.reference), "{} reference", v.name);
            assert!(md.contains(v.showcase), "{} showcase", v.name);
            for p in v.params_detail {
                assert!(
                    md.contains(&format!("| `{}` |", p.name)),
                    "{}: missing param row {}",
                    v.name,
                    p.name
                );
            }
        }
        // Table cells must escape literal pipes or the gallery renders
        // broken (the Restricted tuning alternatives carry them).
        for line in md.lines().filter(|l| l.starts_with("| `")) {
            let unescaped = line.replace("\\|", "");
            assert_eq!(
                unescaped.matches('|').count(),
                5,
                "table row has stray pipes: {line}"
            );
        }
    }

    #[test]
    fn build_surfaces_validation_errors() {
        let mut cfg = RssConfig::tuned();
        cfg.setpoint_frac = 0.0;
        assert!(CcEngine::new(&CcAlgorithm::Restricted(cfg), &params()).is_err());
    }
}
