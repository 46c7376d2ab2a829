//! Human-readable debugging session reports.
//!
//! Formats a [`LocateOutcome`] the way the paper walks through its §3.2
//! example: the counters, the final fault candidate set, and the
//! failure-inducing dependence chain with source text per instance.

use crate::locate::LocateOutcome;
use omislice_analysis::ProgramAnalysis;
use omislice_slicing::Slice;
use omislice_trace::{InstId, Trace};
use std::fmt::Write as _;

/// Renders a full session report.
pub fn render_report(outcome: &LocateOutcome, trace: &Trace, analysis: &ProgramAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== omislice fault localization report ===");
    let _ = writeln!(
        out,
        "root cause captured : {}",
        if outcome.found { "yes" } else { "NO" }
    );
    let _ = writeln!(out, "iterations          : {}", outcome.iterations);
    let _ = writeln!(out, "verifications       : {}", outcome.verifications);
    let _ = writeln!(out, "re-executions       : {}", outcome.reexecutions);
    let _ = writeln!(out, "user prunings       : {}", outcome.user_prunings);
    let _ = writeln!(
        out,
        "implicit edges added: {} ({} strong)",
        outcome.expanded_edges, outcome.strong_edges
    );
    let _ = writeln!(
        out,
        "IPS size            : {} static / {} dynamic",
        outcome.ips.static_size(),
        outcome.ips.dynamic_size()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "--- fault candidate set (IPS) ---");
    for &inst in outcome.ips.insts() {
        let _ = writeln!(out, "  {}", describe_inst(trace, analysis, inst));
    }
    if let Some(os) = &outcome.os {
        let _ = writeln!(out);
        let _ = writeln!(out, "--- failure-inducing chain (o* .. root cause) ---");
        let edges = outcome.os_edges.as_deref().unwrap_or(&[]);
        for (i, &inst) in os.iter().enumerate() {
            let _ = writeln!(out, "  {}", describe_inst(trace, analysis, inst));
            if let Some(edge) = edges.get(i) {
                let _ = writeln!(out, "    └─[{} dependence]", edge.kind);
            }
        }
    }
    out
}

/// Renders the slice provenance report (`locate --explain`): for every
/// statement of the final pruned slice, the chain of classified
/// dependence edges connecting it to the wrong output, and — for each
/// implicit/strong edge — the verifying predicate switch that admitted
/// it.
pub fn render_explain(
    outcome: &LocateOutcome,
    trace: &Trace,
    analysis: &ProgramAnalysis,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== slice provenance (IPS, {} statements) ===", {
        outcome.provenance.len()
    });
    for entry in &outcome.provenance {
        let _ = writeln!(out, "{}", describe_inst(trace, analysis, entry.inst));
        if entry.inst == outcome.wrong_output {
            let _ = writeln!(out, "  (the wrong output o*)");
            continue;
        }
        if entry.chain.is_empty() {
            let _ = writeln!(
                out,
                "  (no verified path from o* — admitted by potential dependence)"
            );
            continue;
        }
        // The chain runs o* -> ... -> entry.inst; print it from the
        // statement backwards so each line explains why its predecessor
        // is in the slice.
        for edge in entry.chain.iter().rev() {
            let _ = write!(out, "  <-[{}]- ", edge.kind);
            let _ = writeln!(out, "{}", describe_inst(trace, analysis, edge.from));
            if let Some(req) = outcome.verification_of(edge.from, edge.to) {
                let _ = writeln!(
                    out,
                    "      verified by switching {} (occurrence {} of {}): {:?}, {}",
                    req.p, req.p_occ, req.p_stmt, req.verdict, req.outcome
                );
            }
        }
    }
    out
}

/// One-line rendering of an instance: timestamp, statement id, source
/// text, and observed value.
pub fn describe_inst(trace: &Trace, analysis: &ProgramAnalysis, inst: InstId) -> String {
    let ev = trace.event(inst);
    let info = analysis.index().stmt(ev.stmt);
    let value = ev.value.map(|v| format!(" = {v}")).unwrap_or_default();
    format!("{inst} {} [{}] {}{}", ev.stmt, info.func, info.head, value)
}

/// A slice as text: one [`describe_inst`] line per instance and a size
/// footer — the body `omislice slice` prints and `POST /slice` returns.
pub fn render_slice(trace: &Trace, analysis: &ProgramAnalysis, slice: &Slice) -> String {
    let mut out = String::new();
    for &inst in slice.insts() {
        out.push_str(&describe_inst(trace, analysis, inst));
        out.push('\n');
    }
    out.push_str(&format!(
        "-- {} statements / {} instances\n",
        slice.static_size(),
        slice.dynamic_size()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::{locate_fault, LocateConfig};
    use crate::oracle::GroundTruthOracle;
    use omislice_interp::{run_traced, RunConfig};
    use omislice_lang::{compile, StmtId};
    use omislice_slicing::ValueProfile;

    #[test]
    fn report_contains_counters_and_chain() {
        let fixed =
            compile("global x = 0; fn main() { let c = input(); if c == 1 { x = 9; } print(x); }")
                .unwrap();
        let faulty = compile(
            "global x = 0; fn main() { let c = input() - 1; if c == 1 { x = 9; } print(x); }",
        )
        .unwrap();
        let fixed_a = ProgramAnalysis::build(&fixed);
        let analysis = ProgramAnalysis::build(&faulty);
        let config = RunConfig::with_inputs(vec![1]);
        let trace = run_traced(&faulty, &analysis, &config).trace;
        let mut profile = ValueProfile::new();
        profile.add_trace(&trace);
        let oracle = GroundTruthOracle::new(&fixed, &fixed_a, &config, [StmtId(0)]);
        let outcome = locate_fault(
            &faulty,
            &analysis,
            &config,
            &trace,
            &profile,
            &oracle,
            &LocateConfig::default(),
        )
        .unwrap();
        let report = render_report(&outcome, &trace, &analysis);
        assert!(report.contains("root cause captured : yes"), "{report}");
        assert!(report.contains("failure-inducing chain"));
        assert!(report.contains("let c = "));
        assert!(
            report.contains("[strong implicit dependence]")
                || report.contains("[implicit dependence]"),
            "{report}"
        );
        assert!(report.contains("[data dependence]"), "{report}");
    }

    #[test]
    fn describe_inst_shows_value_and_text() {
        let p = compile("fn main() { let a = 41 + 1; }").unwrap();
        let a = ProgramAnalysis::build(&p);
        let trace = run_traced(&p, &a, &RunConfig::default()).trace;
        let line = describe_inst(&trace, &a, omislice_trace::InstId(0));
        assert!(line.contains("let a = (41 + 1);"));
        assert!(line.contains("= 42"));
        assert!(line.contains("[main]"));
    }
}
