//! Terminal plotting: the `rss` CLI and the examples render each table and
//! figure as ASCII so results are inspectable without any
//! external tooling.

/// One labelled series for an overlay chart.
pub struct Series<'a> {
    /// Legend label.
    pub label: &'a str,
    /// `(x, y)` samples.
    pub points: &'a [(f64, f64)],
    /// Glyph to draw with.
    pub glyph: char,
}

/// Render several series over a shared axis into a text chart.
pub fn ascii_chart(title: &str, series: &[Series<'_>], width: usize, height: usize) -> String {
    assert!(width >= 16 && height >= 4, "chart too small");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    if all.is_empty() {
        out.push_str("  (no data)\n");
        return out;
    }
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        for &(x, y) in s.points {
            if !x.is_finite() || !y.is_finite() {
                continue;
            }
            let col = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
            let row = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
            let r = height - 1 - row.min(height - 1);
            grid[r][col.min(width - 1)] = s.glyph;
        }
    }
    for (i, row) in grid.iter().enumerate() {
        let yval = ymax - (ymax - ymin) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{yval:>10.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>11}{:<width$.2}{:>.2}\n",
        "",
        xmin,
        xmax,
        width = width.saturating_sub(4)
    ));
    for s in series {
        out.push_str(&format!("  {} {}\n", s.glyph, s.label));
    }
    out
}

/// Format a simple aligned table: header row plus data rows.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$} | ", c, width = widths[i]));
        }
        line.trim_end().to_string() + "\n"
    };
    out.push_str(&fmt_row(headers.to_vec(), &widths));
    let sep: String = widths
        .iter()
        .map(|w| format!("|{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "|\n";
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(|s| s.as_str()).collect(), &widths));
    }
    out
}

/// Human-readable bits/s.
pub fn fmt_bps(bps: f64) -> String {
    if bps >= 1e9 {
        format!("{:.2} Gbit/s", bps / 1e9)
    } else if bps >= 1e6 {
        format!("{:.2} Mbit/s", bps / 1e6)
    } else if bps >= 1e3 {
        format!("{:.2} kbit/s", bps / 1e3)
    } else {
        format!("{bps:.0} bit/s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_renders_all_series() {
        let a = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        let b = [(0.0, 2.0), (1.0, 1.5), (2.0, 0.0)];
        let chart = ascii_chart(
            "test",
            &[
                Series {
                    label: "up",
                    points: &a,
                    glyph: '*',
                },
                Series {
                    label: "down",
                    points: &b,
                    glyph: 'o',
                },
            ],
            40,
            10,
        );
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("up"));
        assert!(chart.contains("down"));
        assert!(chart.starts_with("test\n"));
    }

    #[test]
    fn chart_handles_empty() {
        let chart = ascii_chart("empty", &[], 40, 10);
        assert!(chart.contains("(no data)"));
    }

    #[test]
    fn chart_handles_constant_series() {
        let a = [(0.0, 5.0), (1.0, 5.0)];
        let chart = ascii_chart(
            "flat",
            &[Series {
                label: "flat",
                points: &a,
                glyph: '#',
            }],
            30,
            6,
        );
        assert!(chart.contains('#'));
    }

    #[test]
    fn table_alignment() {
        let t = ascii_table(
            &["name", "value"],
            &[
                vec!["standard".into(), "1".into()],
                vec!["restricted".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("standard"));
        // All rows equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn bps_formatting() {
        assert_eq!(fmt_bps(98_765_432.0), "98.77 Mbit/s");
        assert_eq!(fmt_bps(1_200_000_000.0), "1.20 Gbit/s");
        assert_eq!(fmt_bps(2_500.0), "2.50 kbit/s");
        assert_eq!(fmt_bps(12.0), "12 bit/s");
    }
}
