#![allow(clippy::disallowed_methods)]
//! DESIGN.md §11 tabulates the diagnostic catalog. This renders the table
//! from [`rr_lint::catalog::CATALOG`] (code, name, severity, summary) and
//! requires DESIGN.md to contain it verbatim, so a new code cannot ship
//! undocumented and a changed one cannot keep its old row.

use rr_lint::catalog;

#[test]
fn design_md_tabulates_the_catalog() {
    let design = include_str!("../../../DESIGN.md");
    let mut table = String::from("| Code | Name | Severity | Meaning |\n|---|---|---|---|\n");
    for info in catalog::CATALOG {
        let row = format!(
            "| `{}` | `{}` | {} | {} |\n",
            info.code, info.name, info.severity, info.summary
        );
        assert!(
            design.contains(&row),
            "DESIGN.md §11 lacks {}'s row:\n{row}",
            info.code
        );
        table.push_str(&row);
    }
    assert!(
        design.contains(&table),
        "DESIGN.md §11 must contain this table verbatim, in catalog order:\n{table}"
    );
}
