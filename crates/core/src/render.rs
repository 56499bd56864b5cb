//! ASCII rendering of restart trees — the reproduction of the paper's tree
//! figures (Figures 2–6).
//!
//! The harness prints these renderings when regenerating the figures; the
//! format shows each restart cell with the components attached directly to it
//! in braces:
//!
//! ```text
//! mercury
//! ├── R_mbus {mbus}
//! ├── R_[fedr,pbcom] {pbcom}
//! │   └── R_fedr {fedr}
//! ├── R_[ses,str] {ses, str}
//! └── R_rtu {rtu}
//! ```

use crate::tree::{NodeId, RestartTree};

/// Renders a tree as indented ASCII art, one cell per line.
pub fn render_tree(tree: &RestartTree) -> String {
    let mut out = String::new();
    render_node(tree, tree.root(), "", "", &mut out);
    out
}

fn node_line(tree: &RestartTree, id: NodeId) -> String {
    let comps = tree.components_at(id);
    if comps.is_empty() {
        tree.label(id).to_string()
    } else {
        format!("{} {{{}}}", tree.label(id), comps.join(", "))
    }
}

fn render_node(tree: &RestartTree, id: NodeId, prefix: &str, child_prefix: &str, out: &mut String) {
    out.push_str(prefix);
    out.push_str(&node_line(tree, id));
    out.push('\n');
    let children = tree.children(id);
    for (i, &child) in children.iter().enumerate() {
        let last = i + 1 == children.len();
        let (branch, extend) = if last {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        render_node(
            tree,
            child,
            &format!("{child_prefix}{branch}"),
            &format!("{child_prefix}{extend}"),
            out,
        );
    }
}

/// Renders a tree in Graphviz DOT format: restart cells as boxes, attached
/// components as ellipses — the publishable version of Figures 2–6.
///
/// ```
/// use rr_core::render::render_dot;
/// use rr_core::tree::TreeSpec;
/// let tree = TreeSpec::cell("root")
///     .with_child(TreeSpec::cell("R_a").with_component("a"))
///     .build()?;
/// let dot = render_dot(&tree);
/// assert!(dot.starts_with("digraph restart_tree"));
/// assert!(dot.contains("\"cell0\" -> \"cell1\""));
/// # Ok::<(), rr_core::TreeError>(())
/// ```
pub fn render_dot(tree: &RestartTree) -> String {
    let mut out =
        String::from("digraph restart_tree {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n");
    let cells = tree.cells();
    let index_of = |id: NodeId| {
        cells
            .iter()
            .position(|&c| c == id)
            .unwrap_or_else(|| unreachable!("cells() lists every rendered cell"))
    };
    for &cell in &cells {
        let idx = index_of(cell);
        out.push_str(&format!(
            "  \"cell{idx}\" [shape=box, style=rounded, label=\"{}\"];\n",
            escape_dot(tree.label(cell))
        ));
        for comp in tree.components_at(cell) {
            out.push_str(&format!(
                "  \"comp_{}\" [shape=ellipse, label=\"{}\"];\n",
                escape_dot(comp),
                escape_dot(comp)
            ));
            out.push_str(&format!(
                "  \"cell{idx}\" -> \"comp_{}\" [style=dashed, arrowhead=none];\n",
                escape_dot(comp)
            ));
        }
        for &child in tree.children(cell) {
            out.push_str(&format!(
                "  \"cell{idx}\" -> \"cell{}\";\n",
                index_of(child)
            ));
        }
    }
    out.push_str("}\n");
    out
}

fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeSpec;

    fn tree_v() -> RestartTree {
        TreeSpec::cell("mercury")
            .with_child(TreeSpec::cell("R_mbus").with_component("mbus"))
            .with_child(
                TreeSpec::cell("R_[fedr,pbcom]")
                    .with_component("pbcom")
                    .with_child(TreeSpec::cell("R_fedr").with_component("fedr")),
            )
            .with_child(TreeSpec::cell("R_[ses,str]").with_components(["ses", "str"]))
            .with_child(TreeSpec::cell("R_rtu").with_component("rtu"))
            .build()
            .unwrap()
    }

    #[test]
    fn render_shows_structure_and_components() {
        let rendered = render_tree(&tree_v());
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0], "mercury");
        assert!(lines[1].contains("R_mbus {mbus}"));
        assert!(lines[2].contains("R_[fedr,pbcom] {pbcom}"));
        assert!(lines[3].contains("└── R_fedr {fedr}"));
        assert!(
            lines[3].starts_with("│   "),
            "fedr nests under the joint cell: {}",
            lines[3]
        );
        assert!(lines[4].contains("{ses, str}"));
        assert!(
            lines[5].starts_with("└── "),
            "last child uses corner: {}",
            lines[5]
        );
    }

    #[test]
    fn display_impl_matches_render() {
        let tree = tree_v();
        assert_eq!(tree.to_string(), render_tree(&tree));
    }

    #[test]
    fn dot_output_is_well_formed() {
        let dot = render_dot(&tree_v());
        assert!(dot.starts_with("digraph restart_tree {"));
        assert!(dot.trim_end().ends_with('}'));
        // 6 cells and 6 components.
        assert_eq!(dot.matches("shape=box").count(), 6);
        assert_eq!(dot.matches("shape=ellipse").count(), 6);
        // Structural edges: 5 parent→child plus 6 dashed attachments.
        assert_eq!(dot.matches("style=dashed").count(), 6);
        assert!(dot.contains("label=\"R_[fedr,pbcom]\""));
    }

    #[test]
    fn dot_escapes_quotes() {
        let tree = TreeSpec::cell("we \"quote\"")
            .with_component("x")
            .build()
            .unwrap();
        let dot = render_dot(&tree);
        assert!(dot.contains("we \\\"quote\\\""));
    }

    #[test]
    fn single_cell_tree_renders() {
        let tree = TreeSpec::cell("solo").with_component("x").build().unwrap();
        assert_eq!(render_tree(&tree), "solo {x}\n");
    }
}
