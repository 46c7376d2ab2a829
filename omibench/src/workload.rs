//! Workload definitions and their seeded, fault-pinned inputs.
//!
//! A workload is a pool of program versions. Each version is one corpus
//! benchmark with its pinned fault applied, run on inputs drawn from
//! `WorkloadGen::new(seed).sized_for_benchmark(bench, scale)` until the
//! pinned fault is exposed: the faulty program's plain output differs
//! from the fixed one's. One generator serves the whole pool, so the
//! same seed always yields the same versions.
//!
//! An input must also be one on which localization succeeds: the
//! reference localization finds the seeded root within a counted
//! deadline. Only sed-storm bounds the input's size, and only by a
//! product constant (see [`FIRST_BUDGET_RUNG`]).

use crate::pipeline::Pass;
use omislice::omislice_interp::{run_plain, RunConfig};
use omislice::omislice_lang::{compile, Program};
use omislice_corpus::{all_benchmarks, WorkloadGen};

/// How a workload reaches the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// One `omislice locate` process per localization, one at a time.
    Cli,
    /// `POST /locate` against one `omislice serve` process.
    Served,
}

/// One kind of program version in a workload's pool.
#[derive(Debug)]
pub struct Spec {
    pub bench: &'static str,
    pub fault: &'static str,
    pub scale: usize,
    /// Versions of this kind in the pool.
    pub versions: usize,
    /// Share of the served schedule's requests that target this kind.
    pub weight: f64,
    /// Most steps the faulty program's plain run may take.
    pub max_steps: Option<u64>,
    /// Counted deadline checks the reference localization may use before
    /// the version is redrawn. Every accepted draw finishes well inside
    /// it; a draw that needs more (sed with `from == to`, where no
    /// substitution is visible and the locator exhausts its pruning
    /// budget) is an input on which localization fails, so it is not a
    /// workload input. Counted checks keep the screen deterministic.
    pub screen_checks: u32,
}

impl Spec {
    /// Whether a reference pass makes this version a workload input.
    pub fn admits(&self, pass: &Pass) -> bool {
        pass.found && !pass.expired
    }
}

/// A named workload: its traffic, why it exists, and its pool.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub front: Front,
    pub specs: &'static [Spec],
}

impl Workload {
    /// Versions in the pool.
    pub fn pool_size(&self) -> usize {
        self.specs.iter().map(|s| s.versions).sum()
    }
}

/// The first rung of the product's switched-run step budget,
/// `BudgetSchedule::default().initial` in `omislice-interp` (a test pins
/// the two together). A switched run longer than this is cut off and
/// retried at the next rung.
pub const FIRST_BUDGET_RUNG: u64 = 16_384;

const SED_TRACE: Spec = Spec {
    bench: "sed",
    fault: "V3-F2",
    scale: 1000,
    versions: 8,
    weight: 1.0,
    max_steps: None,
    screen_checks: 16,
};
const SED_STORM: Spec = Spec {
    bench: "sed",
    fault: "V3-F3",
    scale: 50,
    versions: 16,
    weight: 1.0,
    // About one exposed ×50 draw in five (36 of 194 at seeds 1-10) runs
    // past the first budget rung, so each of its 51 switched runs
    // executes twice and the version costs about double. Every version
    // here pays for one attempt per switched run, so a run's median does
    // not hang on how many of its draws landed past the rung.
    max_steps: Some(FIRST_BUDGET_RUNG),
    screen_checks: 128,
};
const GZIP_PRUNE: Spec = Spec {
    bench: "gzip",
    fault: "V2-F3",
    scale: 50,
    versions: 16,
    weight: 1.0,
    max_steps: None,
    screen_checks: 32,
};

/// Every workload, in the order a full run measures them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sed-trace",
        why: "CLI locate on sed V3-F2 x1000: four full-length traced runs dominate, so recording and interpretation gains show here",
        front: Front::Cli,
        specs: &[SED_TRACE],
    },
    Workload {
        name: "sed-storm",
        why: "CLI locate on sed V3-F3 x50: 51 switched runs per localization, so the verify scheduler, resume and memo dominate",
        front: Front::Cli,
        specs: &[SED_STORM],
    },
    Workload {
        name: "gzip-prune",
        why: "CLI locate on gzip V2-F3 x50: ~250 re-prunings and one re-execution, so slicing and process start dominate",
        front: Front::Cli,
        specs: &[GZIP_PRUNE],
    },
    // A synthetic mix: no request log exists to draw one from. Two
    // versions of each kind, weighted 0.30/0.30/0.25/0.15, so cheap hits
    // make up most requests while the sed x1000 versions keep the
    // artifact cache and the shared memo under pressure. No input is
    // screened for its cost.
    Workload {
        name: "serve-mix",
        why: "omislice serve, 2 closed-loop clients, synthetic mix of gzip, flex and sed x250/x1000 versions: cache hits beside misses and memo pressure",
        front: Front::Served,
        specs: &[
            Spec {
                versions: 2,
                weight: 0.30,
                ..GZIP_PRUNE
            },
            Spec {
                bench: "flex",
                fault: "V1-F9",
                scale: 1000,
                versions: 2,
                weight: 0.30,
                max_steps: None,
                screen_checks: 64,
            },
            Spec {
                scale: 250,
                versions: 2,
                weight: 0.25,
                ..SED_TRACE
            },
            Spec {
                versions: 2,
                weight: 0.15,
                ..SED_TRACE
            },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Draws per version before set-up gives up.
pub const MAX_DRAWS: usize = 64;

/// Linux caps one argv string at 128 KiB (`MAX_ARG_STRLEN`, counting the
/// terminating NUL), so a CLI `--input` CSV must stay below it.
pub const MAX_ARG_BYTES: usize = 128 * 1024;

/// A spec's fixed and faulty programs, compiled once for drawing.
pub struct Pinned {
    pub spec: &'static Spec,
    pub fixed_src: &'static str,
    pub faulty_src: String,
    fixed: Program,
    faulty: Program,
}

impl Pinned {
    /// Looks up the corpus benchmark and fault and compiles both
    /// versions.
    ///
    /// # Errors
    ///
    /// Names the missing benchmark or fault, or the compile failure.
    pub fn new(spec: &'static Spec) -> Result<Pinned, String> {
        let bench = all_benchmarks()
            .into_iter()
            .find(|b| b.name == spec.bench)
            .ok_or_else(|| format!("no corpus benchmark `{}`", spec.bench))?;
        let fault = bench
            .fault(spec.fault)
            .ok_or_else(|| format!("no fault `{}` in `{}`", spec.fault, spec.bench))?;
        let faulty_src = fault.apply(bench.fixed_src);
        let fixed = compile(bench.fixed_src).map_err(|e| format!("{}: {e}", spec.bench))?;
        let faulty = compile(&faulty_src).map_err(|e| format!("{}: {e}", spec.fault))?;
        Ok(Pinned {
            spec,
            fixed_src: bench.fixed_src,
            faulty_src,
            fixed,
            faulty,
        })
    }

    /// Whether `inputs` expose the pinned fault (both versions terminate
    /// normally and print different outputs) within the spec's step
    /// limit.
    pub fn exposes(&self, inputs: &[i64]) -> bool {
        let cfg = RunConfig::with_inputs(inputs.to_vec());
        let got = run_plain(&self.faulty, &cfg);
        if self.spec.max_steps.is_some_and(|max| got.steps > max) {
            return false;
        }
        let want = run_plain(&self.fixed, &cfg);
        want.is_normal() && got.is_normal() && want.outputs != got.outputs
    }

    /// `bench fault xscale`, e.g. `sed V3-F2 x1000`.
    pub fn label(&self) -> String {
        format!(
            "{} {} x{}",
            self.spec.bench, self.spec.fault, self.spec.scale
        )
    }
}

/// The seeded input source of one workload run.
pub struct Drawer {
    gen: WorkloadGen,
}

impl Drawer {
    pub fn new(seed: u64) -> Drawer {
        Drawer {
            gen: WorkloadGen::new(seed),
        }
    }

    /// Draws inputs for `pinned` until they expose its fault. `used`
    /// counts this version's draws and is shared with the caller, which
    /// also charges screened-out draws to it.
    ///
    /// # Errors
    ///
    /// Fails once the version has used [`MAX_DRAWS`] draws.
    pub fn exposed(&mut self, pinned: &Pinned, used: &mut usize) -> Result<Vec<i64>, String> {
        while *used < MAX_DRAWS {
            *used += 1;
            let inputs = self
                .gen
                .sized_for_benchmark(pinned.spec.bench, pinned.spec.scale);
            if pinned.exposes(&inputs) {
                return Ok(inputs);
            }
        }
        Err(format!(
            "{}: no usable input in {MAX_DRAWS} draws",
            pinned.label()
        ))
    }
}

/// The comma-separated `--input` form of an input stream.
pub fn csv(inputs: &[i64]) -> String {
    inputs
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(seed: u64, spec: &'static Spec, n: usize) -> Vec<Vec<i64>> {
        let pinned = Pinned::new(spec).unwrap();
        let mut drawer = Drawer::new(seed);
        (0..n)
            .map(|_| drawer.exposed(&pinned, &mut 0).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_with_the_pinned_fault_exposed() {
        for spec in [&GZIP_PRUNE, &SED_STORM] {
            let a = draw(7, spec, 3);
            assert_eq!(a, draw(7, spec, 3), "{}", spec.bench);
            let pinned = Pinned::new(spec).unwrap();
            assert!(a.iter().all(|inputs| pinned.exposes(inputs)));
        }
    }

    #[test]
    fn different_seed_different_inputs_same_fault() {
        for spec in [&GZIP_PRUNE, &SED_STORM] {
            let a = draw(1, spec, 2);
            let b = draw(2, spec, 2);
            assert_ne!(a, b, "{}", spec.bench);
            let pinned = Pinned::new(spec).unwrap();
            assert_eq!(pinned.spec.fault, spec.fault);
            assert!(b.iter().all(|inputs| pinned.exposes(inputs)));
        }
    }

    #[test]
    fn step_limit_is_the_first_budget_rung() {
        use omislice::omislice_interp::BudgetSchedule;
        assert_eq!(FIRST_BUDGET_RUNG, BudgetSchedule::default().initial);
        let pinned = Pinned::new(&SED_STORM).unwrap();
        for inputs in draw(3, &SED_STORM, 4) {
            let steps = run_plain(&pinned.faulty, &RunConfig::with_inputs(inputs)).steps;
            assert!(steps <= FIRST_BUDGET_RUNG, "{steps}");
        }
    }

    #[test]
    fn workload_table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(find(w.name).is_some());
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.pool_size() >= 8, "{}: pool too small", w.name);
            let total: f64 = w.specs.iter().map(|s| s.weight).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{}: weights sum to {total}",
                w.name
            );
            for s in w.specs {
                Pinned::new(s).unwrap();
            }
        }
    }
}
