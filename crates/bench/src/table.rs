//! Plain-text table rendering for the figure binaries.

/// A simple aligned-column table builder.
///
/// # Examples
///
/// ```
/// use vcop_bench::table::Table;
///
/// let mut t = Table::new(vec!["size", "SW", "HW"]);
/// t.row(vec!["4 KB".into(), "26.0 ms".into(), "2.3 ms".into()]);
/// let s = t.render();
/// assert!(s.contains("4 KB"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:>w$}  "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a [`vcop_sim::time::SimTime`] as milliseconds with two
/// decimals, the unit of the paper's figures.
pub fn ms(t: vcop_sim::time::SimTime) -> String {
    format!("{:.2} ms", t.as_ms_f64())
}

/// A duration in microseconds.
pub fn us(t: vcop_sim::time::SimTime) -> f64 {
    t.as_ms_f64() * 1e3
}

/// Formats a speedup factor like the figure annotations ("11x").
pub fn speedup(s: f64) -> String {
    format!("{s:.1}x")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop_sim::time::SimTime;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "bbbb"]);
        t.row(vec!["123456".into(), "x".into()]);
        t.row(vec!["1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('a'));
        assert!(lines[2].contains("123456"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(SimTime::from_ms(26)), "26.00 ms");
        assert_eq!(speedup(11.04), "11.0x");
    }
}

/// Renders a horizontal stacked-bar chart — the shape of the paper's
/// Figs. 8 and 9 (one bar per configuration, segments for the time
/// components), in plain text.
///
/// # Examples
///
/// ```
/// use vcop_bench::table::BarChart;
/// use vcop_sim::time::SimTime;
///
/// let mut chart = BarChart::new(60);
/// chart.bar("SW", vec![("SW", SimTime::from_ms(26))]);
/// chart.bar("VIM", vec![
///     ("HW", SimTime::from_ms(2)),
///     ("DP", SimTime::from_ms(1)),
/// ]);
/// let art = chart.render();
/// assert!(art.contains("SW"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    width: usize,
    bars: Vec<(String, Vec<(&'static str, vcop_sim::time::SimTime)>)>,
}

/// Fill glyphs cycled per segment.
const GLYPHS: [char; 6] = ['#', '=', ':', '.', '%', '+'];

impl BarChart {
    /// Creates a chart whose longest bar spans `width` characters.
    pub fn new(width: usize) -> Self {
        BarChart {
            width: width.max(10),
            bars: Vec::new(),
        }
    }

    /// Adds a bar made of labelled segments.
    pub fn bar(
        &mut self,
        label: impl Into<String>,
        segments: Vec<(&'static str, vcop_sim::time::SimTime)>,
    ) {
        self.bars.push((label.into(), segments));
    }

    /// Renders the chart with a legend.
    pub fn render(&self) -> String {
        let max_total: u64 = self
            .bars
            .iter()
            .map(|(_, segs)| segs.iter().map(|(_, t)| t.as_ps()).sum::<u64>())
            .max()
            .unwrap_or(1)
            .max(1);
        let label_w = self.bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = String::new();
        let mut legend: Vec<(&'static str, char)> = Vec::new();
        for (label, segs) in &self.bars {
            let total: u64 = segs.iter().map(|(_, t)| t.as_ps()).sum();
            out.push_str(&format!("{label:>label_w$} |"));
            let mut drawn = 0usize;
            let bar_len = ((total as u128 * self.width as u128) / max_total as u128) as usize;
            let mut dominant_glyph = GLYPHS[0];
            let mut dominant_size = 0u64;
            for (name, t) in segs.iter() {
                let glyph = match legend.iter().find(|(n, _)| n == name) {
                    Some(&(_, g)) => g,
                    None => {
                        let g = GLYPHS[legend.len() % GLYPHS.len()];
                        legend.push((name, g));
                        g
                    }
                };
                if t.as_ps() >= dominant_size {
                    dominant_size = t.as_ps();
                    dominant_glyph = glyph;
                }
                let seg_len = if total == 0 {
                    0
                } else {
                    ((t.as_ps() as u128 * bar_len as u128) / total as u128) as usize
                };
                for _ in 0..seg_len {
                    out.push(glyph);
                }
                drawn += seg_len;
            }
            // Rounding slack goes to the dominant segment's glyph.
            for _ in drawn..bar_len {
                out.push(dominant_glyph);
            }
            out.push_str(&format!(
                "  {}\n",
                ms(vcop_sim::time::SimTime::from_ps(total))
            ));
        }
        if !legend.is_empty() {
            out.push_str("legend: ");
            let parts: Vec<String> = legend
                .iter()
                .map(|(name, glyph)| format!("{glyph} = {name}"))
                .collect();
            out.push_str(&parts.join(", "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod bar_tests {
    use super::*;
    use vcop_sim::time::SimTime;

    #[test]
    fn bars_scale_to_longest() {
        let mut c = BarChart::new(40);
        c.bar("long", vec![("a", SimTime::from_ms(10))]);
        c.bar("half", vec![("a", SimTime::from_ms(5))]);
        let art = c.render();
        let lines: Vec<&str> = art.lines().collect();
        let count = |l: &str| l.chars().filter(|&ch| ch == '#').count();
        assert_eq!(count(lines[0]), 40);
        assert_eq!(count(lines[1]), 20);
        assert!(art.contains("legend: # = a"));
    }

    #[test]
    fn segments_partition_the_bar() {
        let mut c = BarChart::new(30);
        c.bar(
            "x",
            vec![("hw", SimTime::from_ms(2)), ("dp", SimTime::from_ms(1))],
        );
        let art = c.render();
        let line = art.lines().next().unwrap();
        let hashes = line.chars().filter(|&ch| ch == '#').count();
        let eqs = line.chars().filter(|&ch| ch == '=').count();
        assert_eq!(hashes + eqs, 30);
        assert_eq!(hashes, 20);
    }

    #[test]
    fn zero_bar_renders_empty() {
        let mut c = BarChart::new(20);
        c.bar("a", vec![("s", SimTime::from_ms(4))]);
        c.bar("zero", vec![("s", SimTime::ZERO)]);
        let art = c.render();
        assert!(art.lines().nth(1).unwrap().contains("0.00 ms"));
    }
}
