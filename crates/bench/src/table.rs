//! Plain-text table rendering for experiment output.
//!
//! Every experiment prints aligned text tables so results can be read
//! against the paper's figures.

/// Renders an aligned text table with a header row.
///
/// # Examples
///
/// ```
/// use hyparview_bench::table::render;
///
/// let out = render(
///     &["protocol", "reliability"],
///     &[vec!["HyParView".into(), "1.000".into()]],
/// );
/// assert!(out.contains("HyParView"));
/// assert!(out.lines().count() >= 3);
/// ```
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        padded.join("  ")
    };
    out.push_str(&render_row(headers.iter().map(|h| h.to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (columns.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a reliability value as a percentage with one decimal.
pub fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a float with `digits` decimals.
pub fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// A crude textual sparkline for a reliability series (one char per bucket).
///
/// Used by Figures 1c and 3 to show recovery at a glance.
pub fn sparkline(series: &[f64], buckets: usize) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() || buckets == 0 {
        return String::new();
    }
    let chunk = series.len().div_ceil(buckets);
    series
        .chunks(chunk)
        .map(|c| {
            let mean = c.iter().sum::<f64>() / c.len() as f64;
            let idx = (mean.clamp(0.0, 1.0) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let out = render(
            &["a", "long-header"],
            &[vec!["x".into(), "1".into()], vec!["yyyy".into(), "22".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // All data lines equal width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn pct_and_num_format() {
        assert_eq!(pct(0.9987), "99.9%");
        assert_eq!(num(2.4481, 2), "2.45");
    }

    #[test]
    fn sparkline_levels() {
        let s = sparkline(&[0.0, 0.5, 1.0], 3);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 5), "");
    }

    #[test]
    fn sparkline_buckets_compress() {
        let series: Vec<f64> = (0..100).map(|i| i as f64 / 99.0).collect();
        let s = sparkline(&series, 10);
        assert_eq!(s.chars().count(), 10);
    }
}
