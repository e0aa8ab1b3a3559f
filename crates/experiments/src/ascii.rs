//! Terminal line charts for the experiment reports.
//!
//! The paper's figures are line charts of one metric over epochs for the
//! four algorithms; the harness renders the same curves as ASCII so a
//! run's shape is inspectable without leaving the terminal (the CSVs are
//! what you plot properly).

/// Plot width in character columns (x axis = epochs, downsampled).
const WIDTH: usize = 72;
/// Plot height in character rows.
const HEIGHT: usize = 16;
/// Glyphs assigned to series, in order.
const GLYPHS: [char; 6] = ['r', 'o', '*', '#', '+', 'x'];

/// Render several same-length series as one chart.
///
/// Series are downsampled by bucket-averaging onto the chart width; the
/// y-axis is scaled to the global min/max. Returns a multi-line string
/// ending in a legend.
pub fn chart(title: &str, series: &[(&str, &[f64])]) -> String {
    let mut out = format!("── {title} ──\n");
    let max_len = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if max_len == 0 || series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let lo = series.iter().flat_map(|(_, v)| v.iter().copied()).fold(f64::INFINITY, f64::min);
    let hi = series.iter().flat_map(|(_, v)| v.iter().copied()).fold(f64::NEG_INFINITY, f64::max);
    let span = if (hi - lo).abs() < 1e-12 { 1.0 } else { hi - lo };

    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];
    for (si, (_, values)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        // Columns index `grid[y][x]` with a per-column `y`, so an
        // iterator over `grid` rows cannot replace this loop.
        #[allow(clippy::needless_range_loop)]
        for x in 0..WIDTH {
            // Average the bucket of samples that maps onto column x.
            let start = x * values.len() / WIDTH;
            let end = (((x + 1) * values.len()) / WIDTH).max(start + 1).min(values.len());
            if start >= values.len() {
                break;
            }
            let avg: f64 = values[start..end].iter().sum::<f64>() / (end - start) as f64;
            let norm = (avg - lo) / span;
            let y = ((1.0 - norm) * (HEIGHT - 1) as f64).round() as usize;
            let y = y.min(HEIGHT - 1);
            // Later series overwrite earlier ones where they collide.
            grid[y][x] = glyph;
        }
    }

    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{hi:10.2} ┤")
        } else if i == HEIGHT - 1 {
            format!("{lo:10.2} ┤")
        } else {
            format!("{:10} │", "")
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:10} └{}\n", "", "─".repeat(WIDTH)));
    out.push_str(&format!("{:12}0 … {} (epochs)\n", "", max_len - 1));
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (name, _))| format!("{} = {}", GLYPHS[i % GLYPHS.len()], name))
        .collect();
    out.push_str(&format!("{:12}{}\n", "", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_legend_and_axis() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..100).map(|i| (100 - i) as f64).collect();
        let s = chart("Fig. X", &[("up", &a), ("down", &b)]);
        assert!(s.contains("Fig. X"));
        assert!(s.contains("r = up"));
        assert!(s.contains("o = down"));
        assert!(s.contains("100.00"), "max label");
        assert!(s.contains("0.00"), "min label");
        assert!(s.lines().count() > HEIGHT);
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let a = [5.0; 10];
        let s = chart("flat", &[("c", &a)]);
        assert!(s.contains('r'));
    }

    #[test]
    fn empty_input_is_graceful() {
        assert!(chart("none", &[]).contains("(no data)"));
        let empty: [f64; 0] = [];
        assert!(chart("none", &[("e", &empty[..])]).contains("(no data)"));
    }

    #[test]
    fn short_series_still_plot() {
        let a = [1.0, 2.0];
        let s = chart("short", &[("s", &a)]);
        assert!(s.contains('r'));
    }
}
