//! Minimal fixed-width table rendering for experiment reports.

/// A simple text table with a header row and aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render as empty strings.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with two spaces between columns.
    pub fn render(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<width$}"));
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

/// Formats a byte count as kilobytes with one decimal, e.g. `2.8KB`.
pub fn format_kb(bytes: usize) -> String {
    format!("{:.1}KB", bytes as f64 / 1024.0)
}

/// Formats a duration in seconds with adaptive precision.
pub fn format_secs(seconds: f64) -> String {
    if seconds < 0.001 {
        format!("{:.0}us", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.1}ms", seconds * 1e3)
    } else {
        format!("{seconds:.2}s")
    }
}

/// JSON object fragment for a throughput measurement, shared by the
/// `BENCH_*.json`-writing benches so their number formats cannot drift.
pub fn json_throughput_entry(ns_per_estimate: f64) -> String {
    format!(
        "{{\"ns_per_estimate\": {:.1}, \"estimates_per_sec\": {:.1}}}",
        ns_per_estimate,
        1e9 / ns_per_estimate
    )
}

/// JSON object fragment `{"median": …, "min": …, "max": …, "spread_pct": …}`
/// summarizing repeated measurements, with the spread as
/// `(max − min) / median`. `values` must not be empty.
pub fn json_spread_summary(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
    format!(
        "{{\"median\": {median:.1}, \"min\": {min:.1}, \"max\": {max:.1}, \"spread_pct\": {:.1}}}",
        (max - min) / median * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "12345"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        // Columns are aligned: "value" column starts at the same offset.
        let offset0 = lines[0].find("value").unwrap();
        let offset2 = lines[2].find('1').unwrap();
        assert_eq!(offset0, offset2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["only-one"]);
        let rendered = t.render();
        assert!(rendered.contains("only-one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_kb(2867), "2.8KB");
        assert_eq!(format_secs(0.000002), "2us");
        assert_eq!(format_secs(0.25), "250.0ms");
        assert_eq!(format_secs(2.5), "2.50s");
    }
}
