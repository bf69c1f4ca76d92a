//! Plain-text table formatting shared by the experiment binaries.

use crate::experiments::Fig7Row;

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Format a table with a header row and aligned columns.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(c.len()))
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Print a Fig. 7/8 comparison: the `heading` line, the per-operator table,
/// the geomean lines (`mopt5` adds the MOpt-5 line Fig. 7 reports) and the
/// paper's own figures in `paper`.
pub fn print_fig7(heading: &str, rows: &[Fig7Row], mopt5: bool, paper: &str) {
    let mopt5_vs_tvm: fn(&Fig7Row) -> f64 = |r| r.mopt5_gflops / r.tvm_like_gflops.max(1e-12);
    println!("{heading}");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.1}", r.tvm_like_gflops),
                format!("{:.2}x", r.onednn_vs_tvm()),
                format!("{:.2}x", r.mopt1_vs_tvm()),
                format!("{:.2}x", mopt5_vs_tvm(r)),
                format!("{:.1}", r.mopt1_gflops),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["Operator", "TVM-like GF", "oneDNN/TVM", "MOpt-1/TVM", "MOpt-5/TVM", "MOpt-1 GF"],
            &table
        )
    );
    let geomean_of =
        |ratio: fn(&Fig7Row) -> f64| geomean(&rows.iter().map(ratio).collect::<Vec<_>>());
    println!("geomean MOpt-1 / TVM-like   : {:.2}x", geomean_of(Fig7Row::mopt1_vs_tvm));
    if mopt5 {
        println!("geomean MOpt-5 / TVM-like   : {:.2}x", geomean_of(mopt5_vs_tvm));
    }
    println!("geomean MOpt-1 / oneDNN-like: {:.2}x", geomean_of(Fig7Row::mopt1_vs_onednn));
    println!("{paper}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn table_alignment_and_content() {
        let t = format_table(
            &["op", "gflops"],
            &[
                vec!["Y0".to_string(), "123.4".to_string()],
                vec!["ResNet-R12".to_string(), "9.1".to_string()],
            ],
        );
        assert!(t.contains("op"));
        assert!(t.contains("ResNet-R12"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
