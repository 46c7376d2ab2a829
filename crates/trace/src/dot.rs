//! Graphviz (DOT) export of traces: the dynamic dependence graph and the
//! region tree, with statement text on the nodes. Handy for inspecting
//! small runs (`omislice trace --dot ...` in the CLI) and for figures.

use crate::trace::Trace;
use omislice_lang::ProgramIndex;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn node_label(trace: &Trace, index: &ProgramIndex, i: usize) -> String {
    let ev = trace.event(crate::event::InstId(i as u32));
    let head = &index.stmt(ev.stmt).head;
    let value = ev.value.map(|v| format!(" = {v}")).unwrap_or_default();
    escape(&format!("t{i} {}\n{}{}", ev.stmt, head, value))
}

/// Renders the dynamic dependence graph: solid edges are data
/// dependences, dashed edges dynamic control dependences.
pub fn ddg_to_dot(trace: &Trace, index: &ProgramIndex) -> String {
    let mut out = String::from("digraph ddg {\n  rankdir=BT;\n  node [shape=box, fontsize=10];\n");
    for (i, ev) in trace.iter_events().enumerate() {
        let _ = writeln!(out, "  n{i} [label=\"{}\"];", node_label(trace, index, i));
        for d in ev.data_deps {
            let _ = writeln!(out, "  n{i} -> n{};", d.index());
        }
        if let Some(cd) = ev.cd_parent {
            let _ = writeln!(out, "  n{i} -> n{} [style=dashed];", cd.index());
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the region tree (Definition 3) as a top-down hierarchy.
pub fn regions_to_dot(trace: &Trace, index: &ProgramIndex) -> String {
    let regions = trace.regions();
    let mut out =
        String::from("digraph regions {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n");
    for i in 0..trace.len() {
        let _ = writeln!(out, "  n{i} [label=\"{}\"];", node_label(trace, index, i));
    }
    for inst in trace.insts() {
        for child in regions.children(inst) {
            let _ = writeln!(out, "  n{} -> n{};", inst.index(), child.index());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, InstId};
    use crate::trace::Termination;
    use omislice_lang::{compile, StmtId};

    fn sample() -> (Trace, ProgramIndex) {
        let program = compile("fn main() { if 1 < 2 { print(3); } }").unwrap();
        let index = ProgramIndex::build(&program);
        let mut guard = Event::new(StmtId(0));
        guard.branch = Some(true);
        let mut body = Event::new(StmtId(1));
        body.cd_parent = Some(InstId(0));
        body.region_parent = Some(InstId(0));
        body.value = Some(crate::value::Value::Int(3));
        let trace = Trace::from_parts(vec![guard, body], vec![], Termination::Normal);
        (trace, index)
    }

    #[test]
    fn ddg_dot_contains_nodes_and_edges() {
        let (trace, index) = sample();
        let dot = ddg_to_dot(&trace, &index);
        assert!(dot.starts_with("digraph ddg {"));
        assert!(dot.contains("n0 [label=\"t0 S0"));
        assert!(dot.contains("if (1 < 2)"));
        assert!(dot.contains("n1 -> n0 [style=dashed];"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn regions_dot_contains_hierarchy_edge() {
        let (trace, index) = sample();
        let dot = regions_to_dot(&trace, &index);
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.contains("print(3);"));
    }

    #[test]
    fn labels_are_escaped() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
