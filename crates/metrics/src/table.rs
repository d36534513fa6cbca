//! Plain-text table formatting for the experiment runners.

/// Format a table with a header row and data rows as aligned plain text.
///
/// Every row must have the same number of cells as the header.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    for row in rows {
        assert_eq!(
            row.len(),
            cols,
            "row has {} cells, expected {cols}",
            row.len()
        );
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_complete() {
        let out = format_table(
            &["algorithm", "ACT", "AE"],
            &[
                vec!["DSMF".into(), "12000".into(), "0.30".into()],
                vec!["min-min".into(), "31977".into(), "0.11".into()],
            ],
        );
        assert!(out.contains("algorithm"));
        assert!(out.contains("min-min"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        // The header and data rows align on the second column.
        let header_pos = lines[0].find("ACT").unwrap();
        let row_pos = lines[2].find("12000").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn mismatched_row_width_panics() {
        format_table(&["a", "b"], &[vec!["1".into()]]);
    }
}
