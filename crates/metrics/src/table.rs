//! Fixed-width ASCII tables and bar charts for experiment output.
//!
//! The figure reports print the same *series* the paper plots; since the
//! harness is terminal-only, bar charts stand in for the paper's bar figures.

/// Renders a fixed-width ASCII table.
///
/// ```
/// use metrics::table::render_table;
///
/// let out = render_table(
///     &["model", "nodes"],
///     &[vec!["inception".into(), "15599".into()]],
/// );
/// assert!(out.contains("inception"));
/// assert!(out.starts_with('+'));
/// ```
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "row width {} != header width {}",
            row.len(),
            headers.len()
        );
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let sep = {
        let mut s = String::from("+");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s
    };
    let render_row = |cells: &[String]| {
        let mut s = String::from("|");
        for (w, cell) in widths.iter().zip(cells) {
            s.push(' ');
            s.push_str(cell);
            s.push_str(&" ".repeat(w - cell.len() + 1));
            s.push('|');
        }
        s
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = String::new();
    out.push_str(&sep);
    out.push('\n');
    out.push_str(&render_row(&header_cells));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Renders a horizontal ASCII bar chart: one labelled bar per `(label, value)`
/// pair, scaled so the longest bar is `width` characters.
///
/// ```
/// use metrics::table::render_bars;
///
/// let chart = render_bars(&[("a".into(), 1.0), ("b".into(), 2.0)], 10);
/// assert!(chart.lines().count() == 2);
/// ```
///
/// # Panics
///
/// Panics if `width` is zero or any value is negative/NaN.
pub fn render_bars(items: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "bar width must be positive");
    assert!(
        items.iter().all(|(_, v)| v.is_finite() && *v >= 0.0),
        "bar values must be non-negative and finite"
    );
    let max_val = items.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in items {
        let bar_len = if max_val == 0.0 {
            0
        } else {
            ((value / max_val) * width as f64).round() as usize
        };
        out.push_str(&format!(
            "{label:<label_w$} |{} {value:.3}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Renders an ASCII Gantt chart: one labelled row per series of `[start,
/// end)` spans over a shared `[0, horizon)` window, `width` characters wide.
/// Spans are drawn with `#`; sub-cell spans round to one cell.
///
/// ```
/// use metrics::table::render_gantt;
///
/// let chart = render_gantt(
///     &[("a".into(), vec![(0.0, 0.25)]), ("b".into(), vec![(0.5, 1.0)])],
///     1.0,
///     8,
/// );
/// assert_eq!(chart.lines().count(), 2);
/// assert!(chart.lines().next().unwrap().contains("##"));
/// ```
///
/// # Panics
///
/// Panics if `horizon` or `width` is zero, or any span is inverted, not
/// finite, or outside `[0, horizon]`.
pub fn render_gantt(rows: &[(String, Vec<(f64, f64)>)], horizon: f64, width: usize) -> String {
    assert!(horizon > 0.0 && horizon.is_finite(), "bad horizon {horizon}");
    assert!(width > 0, "gantt width must be positive");
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, spans) in rows {
        let mut cells = vec![b' '; width];
        for &(start, end) in spans {
            assert!(
                start.is_finite() && end.is_finite() && start <= end,
                "inverted span {start}..{end}"
            );
            assert!(
                (0.0..=horizon).contains(&start) && end <= horizon,
                "span {start}..{end} outside horizon {horizon}"
            );
            let a = ((start / horizon) * width as f64).floor() as usize;
            let b = (((end / horizon) * width as f64).ceil() as usize).min(width);
            for cell in cells.iter_mut().take(b.max(a + 1).min(width)).skip(a) {
                *cell = b'#';
            }
        }
        let bar = String::from_utf8(cells).expect("ASCII cells");
        out.push_str(&format!("{label:<label_w$} |{bar}|\n"));
    }
    out
}

/// Formats a float series as `x<TAB>y` lines, the raw data behind a figure,
/// convenient for piping into external plotting tools.
pub fn render_series(series: &[(f64, f64)]) -> String {
    let mut out = String::new();
    for (x, y) in series {
        out.push_str(&format!("{x:.6}\t{y:.6}\n"));
    }
    out
}

/// ASCII level ramp used by [`render_sparkline`], lowest to highest.
const SPARK_RAMP: &[u8] = b" .:-=+*#@";

/// Renders a one-line ASCII sparkline: one character per value, scaled to
/// the sample's own finite `[min, max]` range.
///
/// Degenerate inputs degrade instead of failing: a flat series (all
/// values equal — including a single point) renders entirely at the
/// middle level rather than dividing by its zero range, and non-finite
/// values (`NaN`, `±inf`) render as the middle level without entering
/// the scaling arithmetic — the output is always plain ASCII of the
/// input's length, never a panic.
///
/// ```
/// use metrics::table::render_sparkline;
///
/// let line = render_sparkline(&[0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(line.len(), 4);
/// assert!(line.ends_with('@'));
/// assert_eq!(render_sparkline(&[7.0, 7.0, 7.0]), "===");
/// assert_eq!(render_sparkline(&[f64::NAN, 0.0, 4.0]), "= @");
/// ```
pub fn render_sparkline(values: &[f64]) -> String {
    let mid = SPARK_RAMP[SPARK_RAMP.len() / 2] as char;
    let mut finite = values.iter().copied().filter(|v| v.is_finite());
    let Some(first) = finite.next() else {
        // Empty input or nothing finite to scale against.
        return values.iter().map(|_| mid).collect();
    };
    let (min, max) = finite.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let range = max - min;
    let top = (SPARK_RAMP.len() - 1) as f64;
    values
        .iter()
        .map(|v| {
            if !v.is_finite() {
                return mid;
            }
            let level = if range == 0.0 {
                SPARK_RAMP.len() / 2
            } else {
                ((((v - min) / range) * top).round() as usize).min(SPARK_RAMP.len() - 1)
            };
            SPARK_RAMP[level] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_expands_to_widest_cell() {
        let out = render_table(
            &["a", "long-header"],
            &[vec!["wider-than-header".into(), "x".into()]],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "ragged table");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn bars_scale_to_width() {
        let out = render_bars(&[("x".into(), 5.0), ("y".into(), 10.0)], 20);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0].matches('#').count(), 10);
        assert_eq!(lines[1].matches('#').count(), 20);
    }

    #[test]
    fn bars_all_zero() {
        let out = render_bars(&[("x".into(), 0.0)], 10);
        assert_eq!(out.lines().count(), 1);
        assert_eq!(out.matches('#').count(), 0);
    }

    #[test]
    fn gantt_places_spans_proportionally() {
        let out = render_gantt(
            &[
                ("x".into(), vec![(0.0, 0.5)]),
                ("y".into(), vec![(0.5, 1.0)]),
            ],
            1.0,
            10,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains("|#####     |"), "{out}");
        assert!(lines[1].contains("|     #####|"), "{out}");
    }

    #[test]
    fn gantt_tiny_span_still_visible() {
        let out = render_gantt(&[("x".into(), vec![(0.42, 0.42001)])], 1.0, 10);
        assert_eq!(out.matches('#').count(), 1);
    }

    #[test]
    #[should_panic(expected = "outside horizon")]
    fn gantt_rejects_out_of_window_spans() {
        render_gantt(&[("x".into(), vec![(0.5, 2.0)])], 1.0, 10);
    }

    #[test]
    fn gantt_with_no_rows_renders_nothing() {
        assert_eq!(render_gantt(&[], 1.0, 10), "");
    }

    #[test]
    fn gantt_row_with_no_spans_is_blank() {
        let out = render_gantt(&[("idle".into(), vec![])], 1.0, 8);
        assert_eq!(out, "idle |        |\n");
    }

    #[test]
    fn gantt_spans_at_window_edges_stay_inside() {
        // Spans touching 0.0 and the horizon exactly must render without
        // panicking and without spilling past the bar.
        let out = render_gantt(
            &[("x".into(), vec![(0.0, 0.1), (0.9, 1.0)])],
            1.0,
            10,
        );
        assert_eq!(out, "x |#        #|\n");
        // A zero-length span exactly at the horizon marks no cell (there is
        // no cell to its right) but is still accepted.
        let edge = render_gantt(&[("y".into(), vec![(1.0, 1.0)])], 1.0, 10);
        assert_eq!(edge.matches('#').count(), 0);
        // A full-window span fills every cell.
        let full = render_gantt(&[("z".into(), vec![(0.0, 1.0)])], 1.0, 10);
        assert_eq!(full.matches('#').count(), 10);
    }

    #[test]
    fn sparkline_scales_to_range() {
        let line = render_sparkline(&[0.0, 4.0, 8.0]);
        assert_eq!(line.len(), 3);
        assert!(line.starts_with(' '));
        assert!(line.ends_with('@'));
    }

    #[test]
    fn sparkline_flat_and_empty() {
        assert_eq!(render_sparkline(&[]), "");
        let flat = render_sparkline(&[5.0; 4]);
        assert_eq!(flat, "====", "flat series renders the mid band");
    }

    #[test]
    fn sparkline_single_point_is_mid_band() {
        assert_eq!(render_sparkline(&[3.25]), "=");
        assert_eq!(render_sparkline(&[0.0]), "=");
    }

    #[test]
    fn sparkline_nonfinite_degrades_to_mid_band() {
        // NaN and infinities render as the mid level and never reach the
        // scaling arithmetic; finite neighbours still scale normally.
        assert_eq!(render_sparkline(&[1.0, f64::NAN]), "==");
        assert_eq!(render_sparkline(&[f64::NAN, f64::INFINITY]), "==");
        let line = render_sparkline(&[0.0, f64::NEG_INFINITY, 8.0]);
        assert_eq!(line, " =@");
        assert!(line.is_ascii());
    }

    #[test]
    fn sparkline_output_is_nan_free_ascii_of_input_length() {
        let inputs: &[&[f64]] = &[
            &[],
            &[f64::NAN],
            &[f64::NAN, f64::NAN],
            &[1.0, 2.0, f64::INFINITY, -1.0],
            &[-0.0, 0.0],
        ];
        for vals in inputs {
            let line = render_sparkline(vals);
            assert_eq!(line.chars().count(), vals.len());
            assert!(line.chars().all(|c| SPARK_RAMP.contains(&(c as u8))));
        }
    }

    #[test]
    fn series_lines() {
        let out = render_series(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("1.000000\t2.000000"));
    }
}
