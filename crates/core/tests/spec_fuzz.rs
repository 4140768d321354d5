//! The scenario spec never panics on mutated input. Each case takes one
//! shipped `scenarios/**/*.json` file and mutates it once: it flips, inserts
//! or deletes a byte, or splices an extreme number into one of its numeric
//! literals. Parsing and validating the result must end in `Ok` or in a
//! non-empty `SpecError`, never in a panic.
//!
//! The default case count is proptest's; CI runs it by name at a raised one:
//! `PROPTEST_CASES=5000 cargo test -q -p rss-core --test spec_fuzz`.

use proptest::prelude::*;
use rss_core::ScenarioSpec;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::OnceLock;

/// Numbers at the edges of the knobs' ranges and of their integer types
/// (0.000001 Mbit/s is the slowest rate a link may have, 1 bit/s).
const EXTREMES: [&str; 7] = [
    "0",
    "-1",
    "1e-300",
    "0.000001",
    "1e300",
    "4294967295",
    "18446744073709551615",
];

/// Every scenario file under `scenarios/`, subdirectories included, as
/// `(path, text)`, sorted so the cases do not depend on directory order.
fn corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        fn walk(dir: &Path, out: &mut Vec<(String, String)>) {
            for entry in std::fs::read_dir(dir).expect("read scenarios dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|e| e == "json") {
                    let text = std::fs::read_to_string(&path).expect("read scenario");
                    out.push((path.display().to_string(), text));
                }
            }
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut files = Vec::new();
        walk(&root, &mut files);
        files.sort();
        assert!(
            files.len() >= 20,
            "found only {} scenario files",
            files.len()
        );
        files
    })
}

/// The byte ranges of the numeric literals outside strings.
fn numbers(text: &[u8]) -> Vec<Range<usize>> {
    let (mut out, mut i, mut in_string) = (Vec::new(), 0, false);
    while i < text.len() {
        match text[i] {
            b'"' => in_string = !in_string,
            b'\\' if in_string => i += 1,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < text.len() && (text[i].is_ascii_digit() || b"+-.eE".contains(&text[i])) {
                    i += 1;
                }
                out.push(start..i);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

proptest! {
    #[test]
    fn scenario_specs_never_panic(
        file in any::<usize>(),
        op in 0u8..4,
        at in any::<usize>(),
        byte in any::<u8>(),
        extreme in 0usize..EXTREMES.len(),
    ) {
        let (name, text) = &corpus()[file % corpus().len()];
        let mut bytes = text.clone().into_bytes();
        let what = match op {
            0 => {
                let i = at % bytes.len();
                bytes[i] ^= byte.max(1);
                format!("flip byte {i} by {:#04x}", byte.max(1))
            }
            1 => {
                let i = at % (bytes.len() + 1);
                bytes.insert(i, byte);
                format!("insert {byte:#04x} at byte {i}")
            }
            2 => {
                let i = at % bytes.len();
                bytes.remove(i);
                format!("delete byte {i}")
            }
            _ => {
                // A file that writes no number (all defaults) gets one
                // inserted instead.
                let spans = numbers(&bytes);
                let span = match spans.len() {
                    0 => at % (bytes.len() + 1)..at % (bytes.len() + 1),
                    n => spans[at % n].clone(),
                };
                let what = format!("splice {} over bytes {span:?}", EXTREMES[extreme]);
                bytes.splice(span, EXTREMES[extreme].bytes());
                what
            }
        };
        let text = String::from_utf8_lossy(&bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            ScenarioSpec::from_json(&text).and_then(|spec| spec.validate())
        }));
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => prop_assert!(!e.msg.is_empty(), "{name}, {what}: empty error"),
            Err(_) => panic!("{name}, {what}: the spec panicked on\n{text}"),
        }
    }
}
