//! # omislice-analysis
//!
//! Static analyses over [`omislice-lang`](omislice_lang) programs:
//! control-flow graphs, dominance and post-dominance, control dependence,
//! interprocedural MOD summaries, reaching definitions, and the static
//! part of *potential dependence* (Definition 1 of the PLDI 2007 paper).
//!
//! These play the role of the paper's diablo-based static component. The
//! umbrella type [`ProgramAnalysis`] bundles everything downstream crates
//! need (the tracing interpreter consumes per-statement control-dependence
//! parents; relevant slicing consumes potential dependences).
//!
//! ```
//! use omislice_analysis::ProgramAnalysis;
//! use omislice_lang::{compile, StmtId};
//!
//! let program = compile(
//!     "global x = 0; fn main() { if input() > 0 { x = 1; } print(x); }",
//! )?;
//! let analysis = ProgramAnalysis::build(&program);
//! // `x = 1` is control dependent on the `if`.
//! assert_eq!(analysis.cd_parents(StmtId(1))[0].pred, StmtId(0));
//! # Ok::<(), omislice_lang::FrontendError>(())
//! ```

pub mod bitset;
pub mod cfg;
pub mod ctrl_dep;
pub mod dom;
pub mod modref;
pub mod potential;
pub mod reach;

pub use cfg::{Cfg, NodeId, NodeKind};
pub use ctrl_dep::{CdParent, ControlDeps};
pub use dom::{dominators, post_dominators, DomSets};
pub use modref::ModSummaries;
pub use potential::{PdMode, PotentialDeps};
pub use reach::{DefId, DefSite, ReachingDefs};

use omislice_lang::{Program, ProgramIndex, StmtId, VarId};
use std::collections::HashMap;

/// All static analysis results for one program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    index: ProgramIndex,
    cfgs: HashMap<String, Cfg>,
    cds: HashMap<String, ControlDeps>,
    mods: ModSummaries,
    potential: PotentialDeps,
    /// Flattened statement-level CD parents, dense over `StmtId` (the
    /// tracing interpreter reads them once per executed statement).
    cd_by_stmt: Vec<Vec<CdParent>>,
}

impl ProgramAnalysis {
    /// Runs every analysis on a checked program (with the default
    /// intraprocedural potential-dependence reach).
    pub fn build(program: &Program) -> Self {
        Self::build_with(program, potential::PdMode::default())
    }

    /// Runs every analysis with an explicit potential-dependence mode.
    pub fn build_with(program: &Program, pd_mode: potential::PdMode) -> Self {
        let _span = omislice_obs::span("analyze");
        let index = ProgramIndex::build(program);
        let cfgs = Cfg::build_all(program);
        let cds: HashMap<String, ControlDeps> = cfgs
            .iter()
            .map(|(name, cfg)| (name.clone(), ControlDeps::compute(cfg)))
            .collect();
        let mods = ModSummaries::compute(&index);
        let potential = PotentialDeps::compute_with(program, &index, &cfgs, &cds, &mods, pd_mode);
        // `index.stmts()` is in id order and covers every id.
        let cd_by_stmt = index
            .stmts()
            .iter()
            .map(|info| cds[&info.func].parents(info.id).to_vec())
            .collect();
        ProgramAnalysis {
            index,
            cfgs,
            cds,
            mods,
            potential,
            cd_by_stmt,
        }
    }

    /// The def/use index the analyses were computed against.
    pub fn index(&self) -> &ProgramIndex {
        &self.index
    }

    /// The CFG of `func`, if it exists.
    pub fn cfg(&self, func: &str) -> Option<&Cfg> {
        self.cfgs.get(func)
    }

    /// Control dependences of `func`, if it exists.
    pub fn control_deps(&self, func: &str) -> Option<&ControlDeps> {
        self.cds.get(func)
    }

    /// Immediate static control-dependence parents of a statement.
    pub fn cd_parents(&self, stmt: StmtId) -> &[CdParent] {
        self.cd_by_stmt.get(stmt.index()).map_or(&[], Vec::as_slice)
    }

    /// Whether `stmt` transitively statically depends on `pred` (in the
    /// same function).
    pub fn cd_depends_on(&self, stmt: StmtId, pred: StmtId) -> bool {
        let func = &self.index.stmt(stmt).func;
        self.cds
            .get(func)
            .is_some_and(|cd| cd.depends_on(stmt, pred))
    }

    /// MOD summaries.
    pub fn mods(&self) -> &ModSummaries {
        &self.mods
    }

    /// The static potential-dependence relation.
    pub fn potential(&self) -> &PotentialDeps {
        &self.potential
    }

    /// Shorthand for [`PotentialDeps::static_pd`].
    pub fn static_pd(&self, stmt: StmtId, var: VarId) -> &[CdParent] {
        self.potential.static_pd(stmt, var)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omislice_lang::compile;

    #[test]
    fn umbrella_builds_and_answers_queries() {
        let p = compile("global x = 0; fn main() { if input() > 0 { x = 1; } print(x); }").unwrap();
        let a = ProgramAnalysis::build(&p);
        assert!(a.cfg("main").is_some());
        assert!(a.cfg("ghost").is_none());
        assert!(a.control_deps("main").is_some());
        assert_eq!(a.cd_parents(StmtId(1)).len(), 1);
        assert!(a.cd_parents(StmtId(0)).is_empty());
        assert!(a.cd_depends_on(StmtId(1), StmtId(0)));
        let x = a.index().vars().global("x").unwrap();
        assert_eq!(a.static_pd(StmtId(2), x).len(), 1);
    }

    #[test]
    fn cd_parents_cover_all_functions() {
        let p =
            compile("fn helper(n) { if n > 0 { print(n); } } fn main() { helper(3); }").unwrap();
        let a = ProgramAnalysis::build(&p);
        // print(n) in helper is CD on the if in helper.
        assert_eq!(a.cd_parents(StmtId(1)).len(), 1);
        assert_eq!(a.cd_parents(StmtId(1))[0].pred, StmtId(0));
    }
}
