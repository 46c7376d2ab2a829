//! Byte-for-byte pins on the interpreter's three kinds of run.
//!
//! Each entry of [`EXPECTED`] is the FNV-1a digest of the `omitrace/v1`
//! encoding ([`encode_trace`]) of one traced run: every column
//! (statements, values, branches, the dependence CSR, CD and region
//! parents, defined variables, cells, call depths), the outputs and the
//! termination with its crash message. Each entry of
//! [`EXPECTED_UNTRACED`] is the digest of a plain run (outputs,
//! termination with its message, and `steps`) or of a value run (outputs,
//! termination, and every statement's values). The pinned runs are
//!
//! * every corpus program, fixed and faulty, on the sweep's ×50 workload;
//! * the fixed and faulty programs of 64 generated differential cases on
//!   their failing inputs;
//! * every corpus program on the ×50 workload again under a
//!   [`BUDGET`]-step budget, which stops every run but gzip's (869
//!   steps), a plain run at its ticks and the others at their instance
//!   counts;
//! * for the traced table only, per benchmark, one from-scratch and one
//!   checkpoint-resumed switched run of its first faulty version.
//!
//! `tests/columnar_equivalence.rs` compares the columns with a re-packing
//! of the *same* recorded events, so it cannot see a wrong dependence or
//! a misattributed parent; these digests can. The traced table was
//! recorded before the interpreter's hot path was rewritten around one
//! dependence buffer per run, inline single-definition cells and
//! index-addressed frames, and the untraced table before the plain and
//! value runs moved onto the tracing evaluator; `PlainRun::steps` is
//! what omibench's version screening reads. Any change to what a run
//! records must show up here. A mismatch prints the whole recomputed
//! table.

use omislice::omislice_analysis::ProgramAnalysis;
use omislice::omislice_interp::{
    resume_switched, run_plain_indexed, run_traced, run_traced_with_checkpoints, run_values,
    RunConfig, SwitchSpec, TracedRun,
};
use omislice::omislice_lang::{generate_case, GenOptions, Program, StmtId};
use omislice::omislice_trace::{encode_trace, Termination, Trace, Value};
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
    ("grep/fixed", 0x60d1a3e9d15d6631),
    ("grep/V4-F2", 0x9dea0b890e319b91),
    ("gzip/fixed", 0xf0ed735299a4d7c4),
    ("gzip/V2-F3", 0xac39e3b0997b123c),
    ("sed/fixed", 0xb845a801638678a6),
    ("sed/V3-F2", 0x5e14f8dc1f30979d),
    ("sed/V3-F3", 0xe72def6ef7d4fef6),
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
    ("flex/fixed/budget1000", 0xe904a08339329e86),
    ("flex/V1-F9/budget1000", 0x0586e4eac89a8bee),
    ("flex/V2-F14/budget1000", 0xe904a08339329e86),
    ("flex/V3-F10/budget1000", 0x870427c10efc27e9),
    ("flex/V4-F6/budget1000", 0x71636eb67860fa96),
    ("flex/V5-F6/budget1000", 0x7e6913ce240ac2bf),
    ("grep/fixed/budget1000", 0xbe3e604da1247b4b),
    ("grep/V4-F2/budget1000", 0xd5f59d0886af4b1d),
    ("gzip/fixed/budget1000", 0xf0ed735299a4d7c4),
    ("gzip/V2-F3/budget1000", 0xac39e3b0997b123c),
    ("sed/fixed/budget1000", 0xf416da8d5143c2e5),
    ("sed/V3-F2/budget1000", 0x633bd3e07c739e31),
    ("sed/V3-F3/budget1000", 0x42a7ec3710bb0ec1),
    ("flex/V1-F9/scratch", 0x2c3f738343629a70),
    ("flex/V1-F9/resumed", 0x843e1584f8fc1122),
    ("grep/V4-F2/scratch", 0xe70a9db1dca7ad62),
    ("grep/V4-F2/resumed", 0xbe5972c297e968d0),
    ("gzip/V2-F3/scratch", 0xc047a763c9bec708),
    ("gzip/V2-F3/resumed", 0x0295fe6bc607986f),
    ("sed/V3-F2/scratch", 0xf454f645061d6b9b),
    ("sed/V3-F2/resumed", 0x48395e2805b5c317),
];

/// Recorded plain- and value-run digests, in the order
/// [`untraced_digests`] computes them.
const EXPECTED_UNTRACED: &[(&str, u64)] = &[
    ("flex/fixed/plain", 0x1101bdc7701d7334),
    ("flex/fixed/values", 0x117dfbfd71de56ad),
    ("flex/V1-F9/plain", 0xed61964ec2145626),
    ("flex/V1-F9/values", 0x22dbf915f560e9a2),
    ("flex/V2-F14/plain", 0x1101bdc7701d7334),
    ("flex/V2-F14/values", 0x117dfbfd71de56ad),
    ("flex/V3-F10/plain", 0x419629dd8926dc9d),
    ("flex/V3-F10/values", 0x1b58ec45215260f9),
    ("flex/V4-F6/plain", 0xe938e034b6df7a26),
    ("flex/V4-F6/values", 0xf8b4759562f229b4),
    ("flex/V5-F6/plain", 0x8bc519e82fc123f4),
    ("flex/V5-F6/values", 0x9997bc08a8306ae2),
    ("grep/fixed/plain", 0xa363a5c0935160c1),
    ("grep/fixed/values", 0xfc7d1d68b8839606),
    ("grep/V4-F2/plain", 0x2f25e88aa3ae7a1d),
    ("grep/V4-F2/values", 0x4bb1af2eac90b7d9),
    ("gzip/fixed/plain", 0x0d24f7e9bc24385f),
    ("gzip/fixed/values", 0x58424a0688e540bd),
    ("gzip/V2-F3/plain", 0x0d24f7e9bc24385f),
    ("gzip/V2-F3/values", 0xd01caf1bc55729f5),
    ("sed/fixed/plain", 0xb0a8f2007b8ebe31),
    ("sed/fixed/values", 0x42d0d246f688ab8e),
    ("sed/V3-F2/plain", 0xb0a8f2007b8ebe31),
    ("sed/V3-F2/values", 0xa75993057d05fee6),
    ("sed/V3-F3/plain", 0x88eed66e2612a372),
    ("sed/V3-F3/values", 0x2a47db22d737a060),
    ("gen0/fixed/plain", 0xda660e7598f967dd),
    ("gen0/fixed/values", 0x6e52e1dae0837186),
    ("gen0/faulty/plain", 0x3a7c9f65ebeb6ed3),
    ("gen0/faulty/values", 0xbddb88fc14e7f210),
    ("gen1/fixed/plain", 0x13529e3ee79ab15e),
    ("gen1/fixed/values", 0x56126d6de35d1e7b),
    ("gen1/faulty/plain", 0xf0573a91f1651ae9),
    ("gen1/faulty/values", 0x108407fb0c5b422b),
    ("gen2/fixed/plain", 0x06c254a335c1d3c5),
    ("gen2/fixed/values", 0x497d0b26f3ce2875),
    ("gen2/faulty/plain", 0xe6d919fca3d7c5cd),
    ("gen2/faulty/values", 0xa2d4fcf894cea865),
    ("gen3/fixed/plain", 0x2f4f381d1246159f),
    ("gen3/fixed/values", 0xe72d4a8d4bdaf8c8),
    ("gen3/faulty/plain", 0x6dd539e8e9b76942),
    ("gen3/faulty/values", 0x1196f099c2c33213),
    ("gen4/fixed/plain", 0xca79b328a67a4795),
    ("gen4/fixed/values", 0x03dfa56d089b8b59),
    ("gen4/faulty/plain", 0x20c1ddf8593c4b7c),
    ("gen4/faulty/values", 0x126fd9487aba76a5),
    ("gen5/fixed/plain", 0x5cef7ec980cd3233),
    ("gen5/fixed/values", 0x3b12f829bbec5811),
    ("gen5/faulty/plain", 0x43ae6e6e5ceefeb7),
    ("gen5/faulty/values", 0xbddb44b47cdd5319),
    ("gen6/fixed/plain", 0x29bd8add680db2f4),
    ("gen6/fixed/values", 0xa8cbd3a9b6bff363),
    ("gen6/faulty/plain", 0x61965f0623e25fb7),
    ("gen6/faulty/values", 0x0d9575be0aed1dac),
    ("gen7/fixed/plain", 0xf844c4a6bfbe8c23),
    ("gen7/fixed/values", 0x01e1e52ec68d1c8e),
    ("gen7/faulty/plain", 0x074c4966faaef7ea),
    ("gen7/faulty/values", 0x2e9473d6218e87fd),
    ("gen8/fixed/plain", 0xc933b09cbab5ec3b),
    ("gen8/fixed/values", 0x9ccacbf6137d05bb),
    ("gen8/faulty/plain", 0xc48dbbcbd3749428),
    ("gen8/faulty/values", 0x2a1c97fcf05e31bd),
    ("gen9/fixed/plain", 0x220de8a76f573da5),
    ("gen9/fixed/values", 0x2f68f495dd45e03c),
    ("gen9/faulty/plain", 0x7734c33168abeca6),
    ("gen9/faulty/values", 0x2182083e44947ba8),
    ("gen10/fixed/plain", 0xc418eef315198546),
    ("gen10/fixed/values", 0x1c49cfbbfb28f8a8),
    ("gen10/faulty/plain", 0xfd36145e478c068a),
    ("gen10/faulty/values", 0x24a34ea71db06239),
    ("gen11/fixed/plain", 0xa455dbeaa7bb9b32),
    ("gen11/fixed/values", 0xbfd42f68b688963b),
    ("gen11/faulty/plain", 0xe6be19533c212054),
    ("gen11/faulty/values", 0xd137c636d2eb79bd),
    ("gen12/fixed/plain", 0x9cf8775956eb6de2),
    ("gen12/fixed/values", 0x4da68eeb7cafaf7f),
    ("gen12/faulty/plain", 0xe8139f98ec3419d9),
    ("gen12/faulty/values", 0xf81bd7e41f05aadd),
    ("gen13/fixed/plain", 0xef93ea2ffd5fca79),
    ("gen13/fixed/values", 0xbb17edf4b7f70008),
    ("gen13/faulty/plain", 0x01c716ef4e4d015b),
    ("gen13/faulty/values", 0xbbae066ed1d681f4),
    ("gen14/fixed/plain", 0x95e8e6d174ef81ef),
    ("gen14/fixed/values", 0xe778b6c2e8f39db0),
    ("gen14/faulty/plain", 0x89acbce9ceef61ad),
    ("gen14/faulty/values", 0x57cf638278ec23af),
    ("gen15/fixed/plain", 0x1d806dcfc7124060),
    ("gen15/fixed/values", 0xda4d64a0fe6811fb),
    ("gen15/faulty/plain", 0xf864fc51cd553b10),
    ("gen15/faulty/values", 0x8ab8d8bb68516b02),
    ("gen16/fixed/plain", 0x83dbc4b81df6f7b5),
    ("gen16/fixed/values", 0x36cfa9c4f38b344d),
    ("gen16/faulty/plain", 0x72fcc4e6b8e9a6c8),
    ("gen16/faulty/values", 0xcfbd789b3c9587c1),
    ("gen17/fixed/plain", 0x942f54276f0255a5),
    ("gen17/fixed/values", 0xcd68abd958bfd625),
    ("gen17/faulty/plain", 0x62a9357767de48d8),
    ("gen17/faulty/values", 0x57e0625586c9f44f),
    ("gen18/fixed/plain", 0xbca056696eda170b),
    ("gen18/fixed/values", 0xa671713b3ebc60fb),
    ("gen18/faulty/plain", 0x1c89dfada97a059e),
    ("gen18/faulty/values", 0xf08a48a515ed0ec4),
    ("gen19/fixed/plain", 0xba3fb838ec5fba08),
    ("gen19/fixed/values", 0x589c0081888a0f22),
    ("gen19/faulty/plain", 0x9874fbd1d5372e22),
    ("gen19/faulty/values", 0x23830cf113d7cd4c),
    ("gen20/fixed/plain", 0x0a4090edf55e7ee0),
    ("gen20/fixed/values", 0xafe03b905a21336a),
    ("gen20/faulty/plain", 0xf45901e26c5edb2a),
    ("gen20/faulty/values", 0xa20cadd9fb5392b5),
    ("gen21/fixed/plain", 0xca14db424f111f6c),
    ("gen21/fixed/values", 0x0522a9621f9549d7),
    ("gen21/faulty/plain", 0xabe238dd0eafed0e),
    ("gen21/faulty/values", 0xf7769ad80f1c2276),
    ("gen22/fixed/plain", 0x191941adba7b8128),
    ("gen22/fixed/values", 0xbc62d579b8030564),
    ("gen22/faulty/plain", 0x69fdfc46ac175538),
    ("gen22/faulty/values", 0xd3358d423106e6f4),
    ("gen23/fixed/plain", 0xfe4cebab375ced09),
    ("gen23/fixed/values", 0x275837028f693847),
    ("gen23/faulty/plain", 0x76e2edde2f4e5de4),
    ("gen23/faulty/values", 0x5c33ecf1b241b88b),
    ("gen24/fixed/plain", 0x1066c792e61cfa14),
    ("gen24/fixed/values", 0x4bf08b5edcf3fb5a),
    ("gen24/faulty/plain", 0x9c892d940d65247f),
    ("gen24/faulty/values", 0x68eb09fb1dbfa6f4),
    ("gen25/fixed/plain", 0xc64e71a243c5ebc3),
    ("gen25/fixed/values", 0xcab371d915a9f718),
    ("gen25/faulty/plain", 0x89cdc4381b5341f1),
    ("gen25/faulty/values", 0xd573f0f99ee97d55),
    ("gen26/fixed/plain", 0x864e8bd6d157e14c),
    ("gen26/fixed/values", 0x83e6114077b5c98b),
    ("gen26/faulty/plain", 0x89cdc4381b5341f1),
    ("gen26/faulty/values", 0xab4505eb30ca323d),
    ("gen27/fixed/plain", 0xfe11a4bd4e237cd6),
    ("gen27/fixed/values", 0xd27cc344173d92e6),
    ("gen27/faulty/plain", 0x60339d4cc5bc11b2),
    ("gen27/faulty/values", 0xaac7f76190cb8aba),
    ("gen28/fixed/plain", 0x7290cb8402417a54),
    ("gen28/fixed/values", 0x56625ff54f181dd7),
    ("gen28/faulty/plain", 0x8016b2d802b8119f),
    ("gen28/faulty/values", 0x84e7c3916ae6ee07),
    ("gen29/fixed/plain", 0x03106b89727ba240),
    ("gen29/fixed/values", 0x112848c500dfed54),
    ("gen29/faulty/plain", 0x393f351f52cd5864),
    ("gen29/faulty/values", 0xbe59b8651acd6572),
    ("gen30/fixed/plain", 0x6f98002d1eb74048),
    ("gen30/fixed/values", 0xc2e4b3a205ef587a),
    ("gen30/faulty/plain", 0x042b96b3d6fae91b),
    ("gen30/faulty/values", 0x7c361617f4ad72ff),
    ("gen31/fixed/plain", 0x3c1a1dc8238cdb84),
    ("gen31/fixed/values", 0x5955d081f358250b),
    ("gen31/faulty/plain", 0xc7c3524a3131d633),
    ("gen31/faulty/values", 0x8cf82ac1fd675079),
    ("gen32/fixed/plain", 0x2f26b2d3e405ebe4),
    ("gen32/fixed/values", 0xb3fe2d80943154df),
    ("gen32/faulty/plain", 0x4c776f4a13723f66),
    ("gen32/faulty/values", 0x930125b841870246),
    ("gen33/fixed/plain", 0x01a5ac87dd064ce3),
    ("gen33/fixed/values", 0xb6a2f600f8f29689),
    ("gen33/faulty/plain", 0xd345c9ad080668a9),
    ("gen33/faulty/values", 0x056a8008be62a3ae),
    ("gen34/fixed/plain", 0x6db917bb6aacfd46),
    ("gen34/fixed/values", 0xafac1a3d1984b887),
    ("gen34/faulty/plain", 0x3b113ff373d3c56f),
    ("gen34/faulty/values", 0xf17aab35950ad332),
    ("gen35/fixed/plain", 0x4c68a9dfc7076d10),
    ("gen35/fixed/values", 0xf3e4600a9ee1c4a2),
    ("gen35/faulty/plain", 0x0de2a813ef96196d),
    ("gen35/faulty/values", 0x9748d38612530403),
    ("gen36/fixed/plain", 0x7a3ed2d816c5e30b),
    ("gen36/fixed/values", 0x3e7e23419f670835),
    ("gen36/faulty/plain", 0x8eaa30a1492454cd),
    ("gen36/faulty/values", 0x0a89b1e3b031e618),
    ("gen37/fixed/plain", 0xc7ee0eb4bba1ee67),
    ("gen37/fixed/values", 0xdb411ba28e6cff2d),
    ("gen37/faulty/plain", 0x37cada41c640bb54),
    ("gen37/faulty/values", 0x32e0f4b1dfc54360),
    ("gen38/fixed/plain", 0x499722319e01969f),
    ("gen38/fixed/values", 0x665df24bd509448d),
    ("gen38/faulty/plain", 0x5c8ae93df107ccad),
    ("gen38/faulty/values", 0xd34e1df7f7695526),
    ("gen39/fixed/plain", 0xc1a3e24be53b9d70),
    ("gen39/fixed/values", 0x8bb6026c43cde2b0),
    ("gen39/faulty/plain", 0x6ad2fd2f1063f7d0),
    ("gen39/faulty/values", 0xcad3d52069a22f02),
    ("gen40/fixed/plain", 0x0df2c268f3944b8d),
    ("gen40/fixed/values", 0xc4fc1e5d4f5f4db8),
    ("gen40/faulty/plain", 0xc6ba3e985187a739),
    ("gen40/faulty/values", 0xd4a019c2c2b1e033),
    ("gen41/fixed/plain", 0xadfc3755cb663730),
    ("gen41/fixed/values", 0xcfa057302b83e046),
    ("gen41/faulty/plain", 0x614fea3ad1989a34),
    ("gen41/faulty/values", 0x2077639d6795e14b),
    ("gen42/fixed/plain", 0xc7c4452f80cb4c09),
    ("gen42/fixed/values", 0x899fb0044693e6a4),
    ("gen42/faulty/plain", 0x21dd2eedfaa560ec),
    ("gen42/faulty/values", 0x3aa92dbee4134560),
    ("gen43/fixed/plain", 0x1a3e2c02c85888fc),
    ("gen43/fixed/values", 0x95694176711b29c9),
    ("gen43/faulty/plain", 0xe027baa64739fed1),
    ("gen43/faulty/values", 0x7af7e03d5d710787),
    ("gen44/fixed/plain", 0xd6ba5e7676d1e41e),
    ("gen44/fixed/values", 0xae4e713ba3880f46),
    ("gen44/faulty/plain", 0xdfa77690135ce386),
    ("gen44/faulty/values", 0x0ae89d09b6e9dc76),
    ("gen45/fixed/plain", 0x4a2e2b9329f1b710),
    ("gen45/fixed/values", 0x080b567ff6408910),
    ("gen45/faulty/plain", 0xa8c88b4126428c12),
    ("gen45/faulty/values", 0xab468a481c1ca130),
    ("gen46/fixed/plain", 0x6f1d3f5eede1c68d),
    ("gen46/fixed/values", 0x54055672fbd6ee29),
    ("gen46/faulty/plain", 0xde94519b939b715c),
    ("gen46/faulty/values", 0x2e1d29e38104d2f9),
    ("gen47/fixed/plain", 0x2927cfa7ff8c68c1),
    ("gen47/fixed/values", 0xb742b87da54ca66f),
    ("gen47/faulty/plain", 0xb94600c3475ccf70),
    ("gen47/faulty/values", 0x9168ccf031791871),
    ("gen48/fixed/plain", 0x1d734ff382e3fd11),
    ("gen48/fixed/values", 0x28b34ae40bed5f38),
    ("gen48/faulty/plain", 0x19651f76c66aabe3),
    ("gen48/faulty/values", 0x0ed5f18922a2e40a),
    ("gen49/fixed/plain", 0xc79827545f14e5eb),
    ("gen49/fixed/values", 0xb50c07ee14051870),
    ("gen49/faulty/plain", 0x0bdd4bf8016ff2bb),
    ("gen49/faulty/values", 0x2fd07f60ed3a5d93),
    ("gen50/fixed/plain", 0x96d2e6b4fe060dab),
    ("gen50/fixed/values", 0x644c63c51ec44b19),
    ("gen50/faulty/plain", 0xccced3a2abe532c0),
    ("gen50/faulty/values", 0xeeefdd91b272440d),
    ("gen51/fixed/plain", 0x73d6880c2068af3c),
    ("gen51/fixed/values", 0x5100349fe78ddb59),
    ("gen51/faulty/plain", 0xc9908c64cd3c6ee2),
    ("gen51/faulty/values", 0x29e72cfff0f0137f),
    ("gen52/fixed/plain", 0x880185576f4a0690),
    ("gen52/fixed/values", 0xebee0c6850cde3fd),
    ("gen52/faulty/plain", 0xe5978cac15b20b13),
    ("gen52/faulty/values", 0xed6e71b0def08c86),
    ("gen53/fixed/plain", 0x75a540fa9d9db865),
    ("gen53/fixed/values", 0x427d5e203207d6ce),
    ("gen53/faulty/plain", 0x5ff08e974710a5be),
    ("gen53/faulty/values", 0x08f3ac1d06d2a7ca),
    ("gen54/fixed/plain", 0xe568ee2b0471dca2),
    ("gen54/fixed/values", 0xebb801f38bea4d9e),
    ("gen54/faulty/plain", 0x9b280d4371b70806),
    ("gen54/faulty/values", 0x5fd3f56604b62b64),
    ("gen55/fixed/plain", 0xc9c069760d968fed),
    ("gen55/fixed/values", 0xcdae2a6e0c12366e),
    ("gen55/faulty/plain", 0x3fbca501642b959d),
    ("gen55/faulty/values", 0xfb06c63b8b0526eb),
    ("gen56/fixed/plain", 0xf998f5a5e4cc8b2a),
    ("gen56/fixed/values", 0x84cc2c52dcd43e6e),
    ("gen56/faulty/plain", 0x70872cbc16c76fa2),
    ("gen56/faulty/values", 0x4e097347c119e021),
    ("gen57/fixed/plain", 0x8ac848784fb242e6),
    ("gen57/fixed/values", 0x27f238a78e6bd024),
    ("gen57/faulty/plain", 0x4e471543c6604bb4),
    ("gen57/faulty/values", 0xa11273456b8dd632),
    ("gen58/fixed/plain", 0xc11305bfed6107eb),
    ("gen58/fixed/values", 0xec4b992ec8fe47d0),
    ("gen58/faulty/plain", 0x89cdc4381b5341f1),
    ("gen58/faulty/values", 0x879d01083b52207d),
    ("gen59/fixed/plain", 0x128113b996b2915e),
    ("gen59/fixed/values", 0x9a22313aae439008),
    ("gen59/faulty/plain", 0x0d1428480f05f4df),
    ("gen59/faulty/values", 0xace81956f6f6db52),
    ("gen60/fixed/plain", 0x695e1c8722f80d60),
    ("gen60/fixed/values", 0xed6ab8c25bef1ec8),
    ("gen60/faulty/plain", 0xde94519b939b715c),
    ("gen60/faulty/values", 0xfdd21dedb87b3e15),
    ("gen61/fixed/plain", 0x63415ae389c6a900),
    ("gen61/fixed/values", 0x49f02cd379fe9c2e),
    ("gen61/faulty/plain", 0x49d2da0a174e86fd),
    ("gen61/faulty/values", 0x513925f5c170be6f),
    ("gen62/fixed/plain", 0x4cbb8fc53067c11d),
    ("gen62/fixed/values", 0xa6945d8271139c19),
    ("gen62/faulty/plain", 0x962f8a3a739b36c7),
    ("gen62/faulty/values", 0x370254f172840c66),
    ("gen63/fixed/plain", 0x75348d1e64130b84),
    ("gen63/fixed/values", 0xb71d3758aa6ba13e),
    ("gen63/faulty/plain", 0x3b84a6b6b4694fbf),
    ("gen63/faulty/values", 0xac01c0aee4bc1e28),
    ("flex/fixed/budget1000/plain", 0x98afce06ed6ba81e),
    ("flex/fixed/budget1000/values", 0x6a4143b39d63f7a1),
    ("flex/V1-F9/budget1000/plain", 0x0626e387b723d798),
    ("flex/V1-F9/budget1000/values", 0x7e0c912ccb639e63),
    ("flex/V2-F14/budget1000/plain", 0x98afce06ed6ba81e),
    ("flex/V2-F14/budget1000/values", 0x6a4143b39d63f7a1),
    ("flex/V3-F10/budget1000/plain", 0xb4936c481f17bb4e),
    ("flex/V3-F10/budget1000/values", 0x9b64047cc1a0b7b0),
    ("flex/V4-F6/budget1000/plain", 0x98afce06ed6ba81e),
    ("flex/V4-F6/budget1000/values", 0x72906bad1c6dc7be),
    ("flex/V5-F6/budget1000/plain", 0x98afce06ed6ba81e),
    ("flex/V5-F6/budget1000/values", 0x6cae184fe95b36be),
    ("grep/fixed/budget1000/plain", 0xad2b3bad8cb6fef4),
    ("grep/fixed/budget1000/values", 0xf8b0222671a7a483),
    ("grep/V4-F2/budget1000/plain", 0xad2b3bad8cb6fef4),
    ("grep/V4-F2/budget1000/values", 0x7287ca048179f248),
    ("gzip/fixed/budget1000/plain", 0x0d24f7e9bc24385f),
    ("gzip/fixed/budget1000/values", 0x58424a0688e540bd),
    ("gzip/V2-F3/budget1000/plain", 0x0d24f7e9bc24385f),
    ("gzip/V2-F3/budget1000/values", 0xd01caf1bc55729f5),
    ("sed/fixed/budget1000/plain", 0xa28c2814a7b6666f),
    ("sed/fixed/budget1000/values", 0x84164a00fff4c241),
    ("sed/V3-F2/budget1000/plain", 0xa28c2814a7b6666f),
    ("sed/V3-F2/budget1000/values", 0x4cd8ff7ff47f75f9),
    ("sed/V3-F3/budget1000/plain", 0xbaeff9ddbd05d552),
    ("sed/V3-F3/budget1000/values", 0x8c7b1c459a8937ba),
];

/// The step budget of the budget rows: below every corpus run's length
/// on the ×50 workload but gzip's.
const BUDGET: u64 = 1_000;

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

fn put_value(buf: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(n) => {
            buf.push(0);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        Value::Bool(b) => buf.extend_from_slice(&[1, b as u8]),
    }
}

fn put_run(buf: &mut Vec<u8>, outputs: &[Value], termination: &Termination) {
    buf.extend_from_slice(&(outputs.len() as u64).to_le_bytes());
    for &v in outputs {
        put_value(buf, v);
    }
    match termination {
        Termination::Normal => buf.push(0),
        Termination::BudgetExhausted => buf.push(1),
        Termination::RuntimeError(kind, msg) => {
            buf.push(2);
            for text in [kind.as_str(), msg.as_str()] {
                buf.extend_from_slice(&(text.len() as u64).to_le_bytes());
                buf.extend_from_slice(text.as_bytes());
            }
        }
    }
}

/// One labeled run of the pinned list.
struct Pinned {
    label: String,
    program: Program,
    config: RunConfig,
}

/// The runs both tables pin, in order: per corpus benchmark its fixed
/// and faulty programs on the sweep's ×50 workload, the fixed and faulty
/// programs of 64 generated cases on their failing inputs, and every
/// corpus run again under [`BUDGET`] steps.
fn pinned_runs() -> Vec<Pinned> {
    let mut out = Vec::new();
    for b in all_benchmarks() {
        let config =
            RunConfig::with_inputs(WorkloadGen::new(SWEEP_SEED).sized_for_benchmark(b.name, 50));
        let fixed = omislice::omislice_lang::compile(b.fixed_src).expect("corpus compiles");
        out.push(Pinned {
            label: format!("{}/fixed", b.name),
            program: fixed,
            config: config.clone(),
        });
        for fault in &b.faults {
            out.push(Pinned {
                label: format!("{}/{}", b.name, fault.id),
                program: b.prepare(fault).expect("corpus fault compiles").faulty,
                config: config.clone(),
            });
        }
    }
    let budgeted: Vec<Pinned> = out
        .iter()
        .map(|run| Pinned {
            label: format!("{}/budget{BUDGET}", run.label),
            program: run.program.clone(),
            config: RunConfig {
                step_budget: BUDGET,
                ..run.config.clone()
            },
        })
        .collect();
    for seed in 0..64u64 {
        let case = generate_case(seed, &GenOptions::default());
        for (side, program) in [("fixed", case.fixed), ("faulty", case.faulty)] {
            out.push(Pinned {
                label: format!("gen{seed}/{side}"),
                program,
                config: RunConfig::with_inputs(case.failing_input.clone()),
            });
        }
    }
    out.extend(budgeted);
    out
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
    for run in pinned_runs() {
        let analysis = ProgramAnalysis::build(&run.program);
        let traced = run_traced(&run.program, &analysis, &run.config);
        out.push((run.label, digest(&traced)));
    }
    for b in all_benchmarks() {
        let inputs = WorkloadGen::new(SWEEP_SEED).sized_for_benchmark(b.name, 50);
        let first = b.prepare(&b.faults[0]).expect("corpus fault compiles");
        let tag = format!("{}/{}", b.name, b.faults[0].id);
        switched_digests(
            &first.faulty,
            &RunConfig::with_inputs(inputs),
            &mut out,
            &tag,
        );
    }
    out
}

/// The plain run's and the value run's digest of every pinned run.
fn untraced_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for run in pinned_runs() {
        let analysis = ProgramAnalysis::build(&run.program);
        let index = analysis.index();
        let plain = run_plain_indexed(&run.program, index, &run.config);
        let mut buf = Vec::new();
        put_run(&mut buf, &plain.outputs, &plain.termination);
        buf.extend_from_slice(&plain.steps.to_le_bytes());
        out.push((format!("{}/plain", run.label), fnv1a(&buf)));

        let values = run_values(&run.program, index, &run.config);
        let mut buf = Vec::new();
        put_run(&mut buf, &values.outputs, &values.termination);
        for s in 0..run.program.stmt_count() {
            let of: Vec<Value> = values.values.of(StmtId(s)).collect();
            buf.extend_from_slice(&(of.len() as u64).to_le_bytes());
            for v in of {
                put_value(&mut buf, v);
            }
        }
        out.push((format!("{}/values", run.label), fnv1a(&buf)));
    }
    out
}

/// Panics with the recomputed table when `actual` differs from `expected`.
fn check(what: &str, actual: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let expected: Vec<(String, u64)> = expected
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
        panic!(
            "{what} drifted from their recorded digests; {first_diff}\nrecomputed table:\n{table}"
        );
    }
}

#[test]
fn traced_runs_match_their_recorded_digests() {
    check("traced runs", digests(), EXPECTED);
}

#[test]
fn plain_and_value_runs_match_their_recorded_digests() {
    check(
        "plain and value runs",
        untraced_digests(),
        EXPECTED_UNTRACED,
    );
}
