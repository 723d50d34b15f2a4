//! # canopus-bench
//!
//! The benchmark/reproduction harness: one module per paper figure, each
//! producing the rows/series the paper reports, plus the ablations called
//! out in DESIGN.md. The `repro` binary prints every table and writes the
//! image galleries; the Criterion benches under `benches/` time the same
//! kernels.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig5`] | Fig. 5a–c: Canopus vs direct compression, normalized size vs #levels |
//! | [`fig6`] | Fig. 6a storage-to-compute trend; Fig. 6b write-time fractions |
//! | [`blobs`] | Fig. 7 blob gallery; Fig. 8a–d blob metrics vs decimation ratio |
//! | [`endtoend`] | Figs. 9/10/11: analysis-pipeline and full-restoration times |
//! | [`servebench`] | multi-tenant serving throughput + tail latency (`BENCH_serve.json`) |
//! | [`faultbench`] | fault-injected recovery costs (`BENCH_faults.json`) |
//! | [`histsum`] | per-report histogram summaries + the `bench_guard` regression check |
//! | [`ablation`] | smoothness validation, estimator/codec/priority/refactorer/mapping ablations |
//! | [`extensions`] | focused-retrieval region sweep, campaign query pushdown |
//! | [`setup`] | shared dataset scaling + Titan-like hierarchy calibration |
//! | [`table`] | plain-text table rendering |

pub mod ablation;
pub mod blobs;
pub mod endtoend;
pub mod extensions;
pub mod faultbench;
pub mod fig5;
pub mod fig6;
pub mod histsum;
pub mod servebench;
pub mod setup;
pub mod table;
