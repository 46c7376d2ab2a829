//! Byte-for-byte pins on the traced interpreter.
//!
//! Each entry is the FNV-1a digest of the `omitrace/v1` encoding
//! ([`encode_trace`]) of one traced run: every column (statements,
//! values, branches, the dependence CSR, CD and region parents, defined
//! variables, cells, call depths), the outputs and the termination with
//! its crash message. The runs cover
//!
//! * every corpus program, fixed and faulty, on the sweep's ×50 workload;
//! * per benchmark, one from-scratch and one checkpoint-resumed switched
//!   run of its first faulty version;
//! * the fixed and faulty programs of 64 generated differential cases on
//!   their failing inputs.
//!
//! `tests/columnar_equivalence.rs` compares the columns with a re-packing
//! of the *same* recorded events, so it cannot see a wrong dependence or
//! a misattributed parent; these digests can. The table was recorded
//! before the interpreter's hot path was rewritten around one dependence
//! buffer per run, inline single-definition cells and index-addressed
//! frames, and any change to what the interpreter records must show up
//! here. A mismatch prints the whole recomputed table.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    resume_switched, run_traced, run_traced_with_checkpoints, RunConfig, SwitchSpec, TracedRun,
};
use omislice::omislice_lang::{generate_case, GenOptions, Program};
use omislice::omislice_trace::{encode_trace, Trace};
use omislice_bench::sweep::SWEEP_SEED;
use omislice_corpus::{all_benchmarks, WorkloadGen};

/// Recorded digests, in the order [`digests`] computes them.
const EXPECTED: &[(&str, u64)] = &[
    ("flex/fixed", 0x2413e1e8ab12a88f),
    ("flex/V1-F9", 0x23d7a8293404d4ff),
    ("flex/V2-F14", 0x2413e1e8ab12a88f),
    ("flex/V3-F10", 0x77d349da7354ff17),
    ("flex/V4-F6", 0x30e152b94954e9c1),
    ("flex/V5-F6", 0x23aabcc1d61511df),
    ("flex/V1-F9/scratch", 0x2c3f738343629a70),
    ("flex/V1-F9/resumed", 0x843e1584f8fc1122),
    ("grep/fixed", 0x60d1a3e9d15d6631),
    ("grep/V4-F2", 0x9dea0b890e319b91),
    ("grep/V4-F2/scratch", 0xe70a9db1dca7ad62),
    ("grep/V4-F2/resumed", 0xbe5972c297e968d0),
    ("gzip/fixed", 0xf0ed735299a4d7c4),
    ("gzip/V2-F3", 0xac39e3b0997b123c),
    ("gzip/V2-F3/scratch", 0xc047a763c9bec708),
    ("gzip/V2-F3/resumed", 0x0295fe6bc607986f),
    ("sed/fixed", 0xb845a801638678a6),
    ("sed/V3-F2", 0x5e14f8dc1f30979d),
    ("sed/V3-F3", 0xe72def6ef7d4fef6),
    ("sed/V3-F2/scratch", 0xf454f645061d6b9b),
    ("sed/V3-F2/resumed", 0x48395e2805b5c317),
    ("gen0/fixed", 0xa715b719dd35d9ac),
    ("gen0/faulty", 0xb3766a34fb3c6ed8),
    ("gen1/fixed", 0xc829f272895f3e30),
    ("gen1/faulty", 0x172fe05e472f075b),
    ("gen2/fixed", 0xd9c2bb27ef51c256),
    ("gen2/faulty", 0x9adc0e5ca48f8560),
    ("gen3/fixed", 0x09edd87f167e365e),
    ("gen3/faulty", 0xd21e4433ff276dac),
    ("gen4/fixed", 0x79ca0b892f60887e),
    ("gen4/faulty", 0xe57969572d87efee),
    ("gen5/fixed", 0x38a6a789ed85d036),
    ("gen5/faulty", 0x2c1f365c4f288f33),
    ("gen6/fixed", 0x79698ac9d6c0c145),
    ("gen6/faulty", 0x11bededc4d66a8b6),
    ("gen7/fixed", 0x6a5dcd258cc7d6aa),
    ("gen7/faulty", 0x5b1883649829162c),
    ("gen8/fixed", 0xe12da03d86066dae),
    ("gen8/faulty", 0xf417875d362d6dbe),
    ("gen9/fixed", 0x7f6445317d778f3c),
    ("gen9/faulty", 0x12e200847073ffad),
    ("gen10/fixed", 0x9e0403a244c09050),
    ("gen10/faulty", 0xa807d2a489496ffc),
    ("gen11/fixed", 0x54feac0243cfa289),
    ("gen11/faulty", 0x4ca62ad680dbed2e),
    ("gen12/fixed", 0x678118557e548484),
    ("gen12/faulty", 0x6842dfa03578fce5),
    ("gen13/fixed", 0x2aea0a69e6917579),
    ("gen13/faulty", 0x9e7271cf35c9d852),
    ("gen14/fixed", 0xff9b567dae25d388),
    ("gen14/faulty", 0x72de4fba1d3ad391),
    ("gen15/fixed", 0xe4e52cb305a22974),
    ("gen15/faulty", 0xfaea57913c1032d7),
    ("gen16/fixed", 0xd4a0e4ed6d3c71d8),
    ("gen16/faulty", 0x845f7627600f474a),
    ("gen17/fixed", 0xc87d2226b1fbd172),
    ("gen17/faulty", 0x0d67214e5ac75ac5),
    ("gen18/fixed", 0x037c912fb24811cc),
    ("gen18/faulty", 0x5710181f9ae3c2ef),
    ("gen19/fixed", 0xddddcf2ac8e88df1),
    ("gen19/faulty", 0x1949aa7a1c0f8468),
    ("gen20/fixed", 0x6aa82c7a4deca5ea),
    ("gen20/faulty", 0x5f3306f3c01dba98),
    ("gen21/fixed", 0xad03c5d5b58ae2ac),
    ("gen21/faulty", 0x898682aacd00d02e),
    ("gen22/fixed", 0xa69b5d838c1ce280),
    ("gen22/faulty", 0x364c57c0e4127b33),
    ("gen23/fixed", 0x356b64957f11206e),
    ("gen23/faulty", 0x3df1b974da89f08f),
    ("gen24/fixed", 0xd7da838423f29922),
    ("gen24/faulty", 0x28fd2f057ed50d73),
    ("gen25/fixed", 0x6e5540ed2ec196b2),
    ("gen25/faulty", 0x18b1664393d2bd90),
    ("gen26/fixed", 0x2e8705dce6cd42d5),
    ("gen26/faulty", 0x295d90413c1e4642),
    ("gen27/fixed", 0x87663b7ed4a9c3c9),
    ("gen27/faulty", 0xfa2cb5098e91f610),
    ("gen28/fixed", 0xb08fbe515fbbd29c),
    ("gen28/faulty", 0x30f4296ce925e023),
    ("gen29/fixed", 0x4b755ea0da6cb970),
    ("gen29/faulty", 0x10bd4a644e2c6fc7),
    ("gen30/fixed", 0xabdb3de03fcb93e0),
    ("gen30/faulty", 0x34d933e1d4f3e5dd),
    ("gen31/fixed", 0xc662336e761894f8),
    ("gen31/faulty", 0xe137729eaedb5829),
    ("gen32/fixed", 0x86e844e14341c37d),
    ("gen32/faulty", 0x274089db08463df5),
    ("gen33/fixed", 0xd00b13d8f3cfe727),
    ("gen33/faulty", 0xfedb830b1e3c2648),
    ("gen34/fixed", 0xb8dd1e9793216c99),
    ("gen34/faulty", 0x500ff7861a658fa3),
    ("gen35/fixed", 0x82b4fd5509bc5e16),
    ("gen35/faulty", 0x9941ac7f58c24532),
    ("gen36/fixed", 0x7302352ee2aa5bef),
    ("gen36/faulty", 0x7a974a3a135cc11f),
    ("gen37/fixed", 0x3c98c37bd8978113),
    ("gen37/faulty", 0x610381f36574a2c8),
    ("gen38/fixed", 0x58adad6929933c49),
    ("gen38/faulty", 0x4b93947d18d49d04),
    ("gen39/fixed", 0x1ae6dd3500dccad0),
    ("gen39/faulty", 0x980fcf90d41f4f5d),
    ("gen40/fixed", 0x1acc5044972f30f6),
    ("gen40/faulty", 0x0b13e47d226a89fc),
    ("gen41/fixed", 0xa31aca5fb9012a76),
    ("gen41/faulty", 0x56d65d4e716ac440),
    ("gen42/fixed", 0xab790b5f071b7135),
    ("gen42/faulty", 0xa0656f3d64f21bfa),
    ("gen43/fixed", 0x8d8649cdcbf0cdc9),
    ("gen43/faulty", 0x1352c1b892072035),
    ("gen44/fixed", 0x6ab0fc18e97f0c69),
    ("gen44/faulty", 0xb19399e3f1fe1085),
    ("gen45/fixed", 0xcb23f61405778579),
    ("gen45/faulty", 0x7436b6d8f3ee711a),
    ("gen46/fixed", 0x099ac05cf99d8c2e),
    ("gen46/faulty", 0x6726be2a17556585),
    ("gen47/fixed", 0x3b1e28a86ee5aa40),
    ("gen47/faulty", 0xba7c9ead4a343a4c),
    ("gen48/fixed", 0xa4b531f74c9b682e),
    ("gen48/faulty", 0x1fd07922a3098d98),
    ("gen49/fixed", 0x78563fb64ff0106d),
    ("gen49/faulty", 0xce8f8ce0aa9f1aa8),
    ("gen50/fixed", 0x508036c78b7a35db),
    ("gen50/faulty", 0xda6d73476a345fd0),
    ("gen51/fixed", 0xc247e8b17a419181),
    ("gen51/faulty", 0xe6ff3901c7bde59c),
    ("gen52/fixed", 0x1659f680bc096d73),
    ("gen52/faulty", 0xdacca5555dcc5026),
    ("gen53/fixed", 0x151bd9a80f0819cf),
    ("gen53/faulty", 0xcc6149429a7b7dba),
    ("gen54/fixed", 0x14d3c6cf4af988d6),
    ("gen54/faulty", 0x145cb20567a4f0ef),
    ("gen55/fixed", 0x2c1a49ba86a271a9),
    ("gen55/faulty", 0x040b5b65a90a3cd1),
    ("gen56/fixed", 0xffd82b5ef9dd3fbb),
    ("gen56/faulty", 0x3ec81fb15d81c2ab),
    ("gen57/fixed", 0x77f36b04d10165a3),
    ("gen57/faulty", 0x532e0ca184ec2836),
    ("gen58/fixed", 0x29f2b009720d243e),
    ("gen58/faulty", 0x61e23cd861da6dcc),
    ("gen59/fixed", 0x98badb5059369c05),
    ("gen59/faulty", 0xcf5263908776127e),
    ("gen60/fixed", 0x81f1574c7c769794),
    ("gen60/faulty", 0xac38925d79ce3e2e),
    ("gen61/fixed", 0x60a29bcf1195c76f),
    ("gen61/faulty", 0x64a0dc75ee869bb1),
    ("gen62/fixed", 0x4fc8d1722a29066c),
    ("gen62/faulty", 0x7b092fa1b0cc3e26),
    ("gen63/fixed", 0x414771f8adc02c04),
    ("gen63/faulty", 0x3aa57cf403790b19),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(run: &TracedRun) -> u64 {
    fnv1a(&encode_trace(&run.trace))
}

/// The switch spec of every predicate instance at or after `from`, in
/// trace order (the occurrence counts the statement's earlier instances).
fn predicate_specs(trace: &Trace, from: usize) -> Vec<SwitchSpec> {
    let events = trace.events_vec();
    let mut seen = std::collections::HashMap::new();
    let mut out = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let occ = seen.entry(ev.stmt).or_insert(0u32);
        if ev.branch.is_some() && i >= from {
            out.push(SwitchSpec::new(ev.stmt, *occ));
        }
        *occ += 1;
    }
    out
}

/// Digests of a from-scratch switched run at the first predicate instance
/// past a quarter of the base trace, and of a checkpoint-resumed one at
/// the first resumable instance past its half.
fn switched_digests(
    program: &Program,
    config: &RunConfig,
    out: &mut Vec<(String, u64)>,
    tag: &str,
) {
    let analysis = ProgramAnalysis::build(program);
    let base = run_traced(program, &analysis, config);
    let len = base.trace.len();
    let scratch_spec = predicate_specs(&base.trace, len / 4)[0];
    let scratch = run_traced(program, &analysis, &config.switched(scratch_spec));
    assert!(scratch.switched.is_some(), "{tag}: the switch lands");
    out.push((format!("{tag}/scratch"), digest(&scratch)));

    // Predicates under an expression-position call cannot resume, so scan
    // the candidates past the half in windows until one does.
    let specs = predicate_specs(&base.trace, len / 2);
    let (cp, resumed) = specs
        .chunks(64)
        .find_map(|window| {
            let (_, checkpoints) = run_traced_with_checkpoints(program, &analysis, config, window);
            checkpoints.into_iter().find_map(|cp| {
                resume_switched(
                    program,
                    &analysis,
                    &config.switched(cp.spec),
                    &cp,
                    &base.trace,
                )
                .ok()
                .map(|run| (cp, run))
            })
        })
        .unwrap_or_else(|| panic!("{tag}: some checkpoint past the half resumes"));
    let reference = run_traced(program, &analysis, &config.switched(cp.spec));
    assert_eq!(
        encode_trace(&resumed.trace),
        encode_trace(&reference.trace),
        "{tag}: resumed run differs from its from-scratch twin"
    );
    out.push((format!("{tag}/resumed"), digest(&resumed)));
}

fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        let inputs = WorkloadGen::new(SWEEP_SEED).sized_for_benchmark(b.name, 50);
        let config = RunConfig::with_inputs(inputs);
        let run = |program: &Program| {
            let analysis = ProgramAnalysis::build(program);
            digest(&run_traced(program, &analysis, &config))
        };
        let fixed = omislice::omislice_lang::compile(b.fixed_src).expect("corpus compiles");
        out.push((format!("{}/fixed", b.name), run(&fixed)));
        for fault in &b.faults {
            let prepared = b.prepare(fault).expect("corpus fault compiles");
            out.push((format!("{}/{}", b.name, fault.id), run(&prepared.faulty)));
        }
        let first = b.prepare(&b.faults[0]).expect("corpus fault compiles");
        let tag = format!("{}/{}", b.name, b.faults[0].id);
        switched_digests(&first.faulty, &config, &mut out, &tag);
    }
    for seed in 0..64u64 {
        let case = generate_case(seed, &GenOptions::default());
        let config = RunConfig::with_inputs(case.failing_input.clone());
        for (side, program) in [("fixed", &case.fixed), ("faulty", &case.faulty)] {
            let analysis = ProgramAnalysis::build(program);
            let run = run_traced(program, &analysis, &config);
            out.push((format!("gen{seed}/{side}"), digest(&run)));
        }
    }
    out
}

#[test]
fn traced_runs_match_their_recorded_digests() {
    let actual = digests();
    let expected: Vec<(String, u64)> = EXPECTED
        .iter()
        .map(|&(label, d)| (label.to_string(), d))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (label, d) in &actual {
            table.push_str(&format!("    (\"{label}\", 0x{d:016x}),\n"));
        }
        let first_diff = actual
            .iter()
            .zip(&expected)
            .find(|(a, e)| a != e)
            .map(|(a, e)| format!("first difference: {a:?} vs recorded {e:?}"))
            .unwrap_or_else(|| format!("{} digests vs {} recorded", actual.len(), expected.len()));
        panic!("traced runs drifted from their recorded digests; {first_diff}\nrecomputed table:\n{table}");
    }
}
