//! Table, CSV and ASCII-chart emitters for experiment output.

/// Renders a GitHub-style markdown table.
pub(crate) fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let padded: Vec<String> =
            cells.iter().zip(widths).map(|(c, w)| format!("{c:<w$}", w = *w)).collect();
        format!("| {} |\n", padded.join(" | "))
    };
    out.push_str(&fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &widths));
    let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    out.push_str(&fmt_row(&dashes, &widths));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Renders one or more named series as a fixed-size ASCII chart — enough to
/// eyeball the sawtooth of Figures 7/8/10 in a terminal. Series share the
/// x-range; y is clamped to `[y_min, y_max]`.
pub(crate) fn ascii_chart(
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
    y_min: f64,
    y_max: f64,
) -> String {
    assert!(width >= 10 && height >= 3, "chart too small");
    assert!(y_max > y_min, "empty y range");
    let marks = ['*', 'o', '+', 'x', '#'];
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, pts) in series {
        for (x, _) in pts.iter() {
            x_min = x_min.min(*x);
            x_max = x_max.max(*x);
        }
    }
    if !x_min.is_finite() || x_max <= x_min {
        x_min = 0.0;
        x_max = 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for (x, y) in pts.iter() {
            let xf = (x - x_min) / (x_max - x_min);
            let yf = ((y - y_min) / (y_max - y_min)).clamp(0.0, 1.0);
            let col = (xf * (width - 1) as f64).round() as usize;
            let row = height - 1 - (yf * (height - 1) as f64).round() as usize;
            grid[row][col.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let y_label = y_max - (y_max - y_min) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_label:>7.2} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8}+{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>9}{:<.1}{}{:>.1}\n",
        "",
        x_min,
        " ".repeat(width.saturating_sub(8)),
        x_max
    ));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} {name}", marks[i % marks.len()]))
        .collect();
    out.push_str(&format!("{:>9}{}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_aligns_columns() {
        let t = markdown_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with("| ---"));
        // All lines equal width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn chart_renders_series_marks() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 0.9 + 0.005 * i as f64)).collect();
        let chart = ascii_chart(&[("level", &pts)], 40, 8, 0.8, 1.0);
        assert!(chart.contains('*'));
        assert!(chart.contains("level"));
        assert!(chart.lines().count() >= 10);
    }

    #[test]
    fn chart_clamps_out_of_range() {
        let pts = [(0.0, -5.0), (1.0, 5.0)];
        let chart = ascii_chart(&[("x", &pts)], 20, 5, 0.0, 1.0);
        assert!(chart.contains('*'));
    }

    #[test]
    #[should_panic(expected = "chart too small")]
    fn tiny_chart_rejected() {
        let _ = ascii_chart(&[("x", &[(0.0, 0.0)])], 2, 2, 0.0, 1.0);
    }
}
